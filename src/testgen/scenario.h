// Seeded scenario corpus + adversarial workload generator: builds full
// quality-assessment contexts (ontology + contextual/quality rules +
// database) across the scenario families of the journal version of the
// paper (arXiv:1704.00115) — deep and ragged dimension hierarchies,
// form-(10) disjunctive downward navigation, multi-dimension categorical
// relations, skewed fact distributions — with **dirty-data injection and
// recorded ground truth**: the generator plants known violations
// (attribute corruption, hierarchy misplacement, missing contextual
// facts) and computes the expected quality verdict of every database
// tuple by an independent graph-walk simulation, so `Assessor` verdicts
// get precision/recall numbers instead of just byte-diff parity.
//
// Everything is a pure function of `ScenarioSpec` (no wall-clock
// randomness, no global state), so any failing matrix cell reproduces
// from (family, seed) alone — see docs/testing.md.
#ifndef MDQA_TESTGEN_SCENARIO_H_
#define MDQA_TESTGEN_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "quality/assessor.h"
#include "quality/context.h"

namespace mdqa::testgen {

/// The scenario families of the matrix, mapped to the paper's forms in
/// docs/paper_mapping.md.
enum class ScenarioFamily {
  /// Deep linear homogeneous hierarchy (depth 5): quality requires
  /// upward navigation over a chain of virtual categorical relations,
  /// one per level — rule (7) iterated.
  kDeepHomogeneous,
  /// Ragged/heterogeneous hierarchy: the base category has TWO parent
  /// categories (a skip edge straight to the certification level), and
  /// some members roll up only through the skip edge.
  kRaggedHeterogeneous,
  /// Form-(10) disjunctive downward navigation (rule (9)'s shape): a
  /// discharge-style relation places entities in *some* unit of a
  /// region via an existential categorical variable. Entities supported
  /// only by that possible-world navigation are never certainly clean.
  kDisjunctiveDownward,
  /// Three dimensions; the quality condition navigates two of them
  /// (certification through the area hierarchy AND an instrument-grade
  /// roll-up), joining multi-dimension categorical relations.
  kMultiDimensional,
  /// Zipf-skewed fact distribution: a hot ward holds most entities and
  /// a hot entity produces most measurements — the adversarial shape
  /// for per-relation fan-out and for the join executors' probes.
  kSkewedTenants,
};

inline constexpr ScenarioFamily kAllScenarioFamilies[] = {
    ScenarioFamily::kDeepHomogeneous,
    ScenarioFamily::kRaggedHeterogeneous,
    ScenarioFamily::kDisjunctiveDownward,
    ScenarioFamily::kMultiDimensional,
    ScenarioFamily::kSkewedTenants,
};

const char* ScenarioFamilyToString(ScenarioFamily f);

/// Why a database tuple is expected to be dirty (kNone = expected clean).
enum class ViolationKind {
  kNone,
  kCorruptAttribute,   ///< planted: entity overwritten with a ghost value
  kMisplacedMember,    ///< planted: ward re-linked under an uncertified unit
  kMissingContext,     ///< planted: the supporting schedule fact was dropped
  kUncertified,        ///< organic: the path exists but ends uncertified
  kWrongInstrument,    ///< organic: instrument rolls up to a bad grade
  kPossibleOnly,       ///< form (10): only disjunctive (null) support
};

const char* ViolationKindToString(ViolationKind k);

/// Ground truth for one database row: the row (rendered exactly as it was
/// inserted), its expected verdict, and — when dirty — why.
struct TupleVerdict {
  std::vector<std::string> fields;
  bool clean = false;
  ViolationKind violation = ViolationKind::kNone;
};

/// Knobs of one generated scenario. `SpecFor` fills family-canonical
/// values; every field is honored by `Generate`, so tests can also build
/// off-matrix shapes.
struct ScenarioSpec {
  ScenarioFamily family = ScenarioFamily::kDeepHomogeneous;
  uint32_t seed = 0;
  int depth = 3;     ///< hierarchy levels incl. the single-member top
  int fanout = 3;    ///< children per member, level to level
  int entities = 10; ///< distinct measured entities
  int days = 3;
  int rows = 30;     ///< measurement rows (entity drawn per row)
  double zipf_s = 0.0;  ///< >0: Zipf exponent for ward/entity skew
  // Planted violations (each count is a target; the generator plants at
  // most that many and records what it actually planted).
  int corruptions = 2;
  int misplacements = 1;
  int missing_facts = 1;
  // Seeded update stream for the incremental/serve paths.
  int update_batches = 2;
  int updates_per_batch = 3;
  /// The last batch also deletes one base row (exercising the recorded
  /// full-re-chase path) when true.
  bool delete_in_last_batch = true;
};

/// Canonical spec of (family, seed): small enough that the full matrix
/// runs in seconds, varied enough that seeds differ structurally.
ScenarioSpec SpecFor(ScenarioFamily family, uint32_t seed);

/// One update batch plus the ground truth of the WHOLE database after
/// applying it (cumulative — batch k's verdicts describe the state after
/// batches 0..k).
struct ScenarioUpdate {
  quality::DeltaBatch batch;
  std::vector<TupleVerdict> verdicts_after;
};

/// A fully generated scenario: a ready-to-assess quality context over
/// the generated ontology, the per-tuple ground truth of its database,
/// and a seeded update stream with ground truth after every batch.
struct GeneratedScenario {
  ScenarioSpec spec;
  quality::QualityContext context;
  /// Name of the (single) assessed relation.
  std::string relation;
  /// Ground truth of the initial database, one entry per row.
  std::vector<TupleVerdict> truth;
  std::vector<ScenarioUpdate> updates;
  /// How many violations of each planted kind actually landed (a planted
  /// corruption can hit a row that was already dirty; these count rows
  /// whose expected verdict is dirty *with that reason*).
  size_t planted_corrupt = 0;
  size_t planted_misplaced = 0;
  size_t planted_missing = 0;
};

/// Deterministic scenario construction: same spec ⇒ byte-identical
/// scenario (program, database, ground truth, update stream) — pinned by
/// tests/testgen_test.cc across threads and process runs.
class ScenarioGenerator {
 public:
  static Result<GeneratedScenario> Generate(const ScenarioSpec& spec);
};

/// Canonical byte-level rendering of everything `Generate` produced:
/// the compiled contextual program, the database, the ground truth, and
/// the update stream. Two scenarios are the same iff their fingerprints
/// are byte-identical.
Result<std::string> ScenarioFingerprint(const GeneratedScenario& scenario);

/// Precision/recall of an assessment's per-tuple verdicts against ground
/// truth, treating *dirty* as the positive (detection) class:
///   precision = |flagged ∩ truly-dirty| / |flagged|
///   recall    = |flagged ∩ truly-dirty| / |truly-dirty|
/// (1.0 on empty denominators). Exact engines on the generated families
/// must score precision = recall = 1.0.
struct VerdictScore {
  size_t rows = 0;
  size_t expected_dirty = 0;
  size_t flagged_dirty = 0;
  size_t true_positives = 0;
  double precision = 1.0;
  double recall = 1.0;
  /// Rendered mismatches (empty when precision == recall == 1.0).
  std::vector<std::string> mismatches;
};

/// Scores `report`'s verdicts for `relation` against `truth`. Fails with
/// kNotFound when the report carries no entry for the relation (e.g. it
/// was degraded), and kFailedPrecondition when the report's row coverage
/// does not match the ground truth's rows.
Result<VerdictScore> ScoreVerdicts(const quality::AssessmentReport& report,
                                   const std::string& relation,
                                   const std::vector<TupleVerdict>& truth);

}  // namespace mdqa::testgen

#endif  // MDQA_TESTGEN_SCENARIO_H_
