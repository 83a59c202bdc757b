#ifndef MDQA_DATALOG_CHASE_H_
#define MDQA_DATALOG_CHASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"

namespace mdqa::datalog {

class ProgramAnalysis;

/// How equality-generating dependencies participate in the chase.
enum class EgdMode {
  kOff,          ///< ignore EGDs entirely
  kPost,         ///< apply EGDs to fixpoint after the TGD chase (valid for
                 ///< separable programs, where EGD and TGD application
                 ///< commute — the paper's Section III condition)
  kInterleaved,  ///< apply EGDs to fixpoint after every TGD round (general)
};

struct ChaseOptions {
  EgdMode egd_mode = EgdMode::kInterleaved;
  /// Evaluate negative constraints after the chase; a violation makes the
  /// run fail with kInconsistent and a witness.
  bool check_constraints = true;
  /// Use semi-naive (delta) evaluation. Naive mode exists for testing and
  /// as the X1 ablation (`mdqa_experiments X1`).
  bool semi_naive = true;
  /// When non-null, every TGD firing records its ground body witness here
  /// (one extra body evaluation per firing) so derived facts can be
  /// explained as derivation trees. See datalog/provenance.h.
  class ProvenanceStore* provenance = nullptr;
  /// When non-null, the chase charges facts/rounds/memory against this
  /// budget and polls it for deadline expiry, cancellation, and injected
  /// faults. The budget is the only thing that stops a run early (null =
  /// unlimited). A trip stops the run *gracefully*: `Run` returns OK with
  /// `ChaseStats::completeness == kTruncated` and the partial (sound)
  /// instance in place, and no post-phase EGD pass or constraint check
  /// runs after it. A fact's derivation level is the round that created
  /// it (extensional facts are level 0), so the budget's round cap
  /// (`ExecutionBudget::set_max_rounds`) is the level bound of the
  /// level-bounded chase used for weakly-sticky query answering. Counters
  /// add up across runs: call `ResetUsage` before re-running under the
  /// same budget. Not owned.
  ExecutionBudget* budget = nullptr;
  /// Not read by the chase: every pass collects its triggers serially
  /// (see docs/parallelism.md). The field stays only because the
  /// repository benchmark (perfbench/src/replica.cc) still assigns it; it
  /// goes together with that assignment. Not owned.
  ThreadPool* pool = nullptr;
  /// Declares the program's EGDs *separable* in the paper's §III sense
  /// (EGD and TGD application commute — the ontology layer's
  /// `OntologyProperties::separable_egds` verifies the sufficient
  /// condition). `Chase::Extend` only maintains EGD programs
  /// incrementally when this is set; otherwise it conservatively falls
  /// back to a full re-chase. `Run` ignores the flag.
  bool egds_separable = false;
  /// Pre-computed position/dependency analysis of the program, used by
  /// `Chase::Extend` to *narrow* its conservative fallbacks: EGDs whose
  /// body predicates cannot be reached from the delta, or that provably
  /// never equate labeled nulls, no longer force a full re-chase, and
  /// form-(10) rules only do so when the delta (plus any possible null
  /// merges) can actually feed them. When null, Extend builds a local
  /// analysis on demand. `Run` ignores the field. Not owned; must
  /// describe exactly `program`'s rules.
  const ProgramAnalysis* analysis = nullptr;
};

/// Resume state of a completed chase, captured in `ChaseStats::frontier`:
/// everything `Chase::Extend` needs to restart the semi-naive evaluation
/// seeded with a delta instead of re-chasing from scratch. Valid only
/// while the instance it was captured from is unmodified (the generation
/// check) — `Extend` refuses a stale frontier rather than guessing.
struct ChaseFrontier {
  /// False until a chase run reaches its fixpoint (a truncated run has
  /// no usable frontier: unprocessed triggers are unrecorded).
  bool valid = false;
  /// Last completed chase round == the highest derivation level in the
  /// instance. Delta facts are inserted above it so the level windows of
  /// the semi-naive restart see exactly the delta.
  uint64_t round = 0;
  /// Labeled nulls minted in the shared Vocabulary at capture time.
  uint32_t null_watermark = 0;
  /// Cumulative EGD merges applied to the instance at capture time.
  uint64_t egd_merges = 0;
  /// Instance::generation() at capture; Extend validates against it.
  uint64_t generation = 0;
  /// Per-predicate row counts at capture (the frozen-segment watermark).
  std::unordered_map<uint32_t, uint32_t> watermarks;

  std::string ToString() const;
};

/// Why a chase run stopped before its fixpoint.
enum class ChaseStop {
  kNone,       ///< did not stop early
  kBudget,     ///< ExecutionBudget counter/deadline/memory trip
  kCancelled,  ///< CancellationToken fired
};

const char* ChaseStopToString(ChaseStop stop);

struct ChaseStats {
  bool reached_fixpoint = false;
  uint64_t rounds = 0;
  uint64_t tgd_firings = 0;
  uint64_t facts_added = 0;
  uint64_t nulls_created = 0;
  uint64_t egd_merges = 0;
  /// kTruncated when the run stopped before the fixpoint; by chase
  /// monotonicity the instance is then a sound under-approximation.
  Completeness completeness = Completeness::kComplete;
  /// What cut the run short (kNone when completeness == kComplete).
  ChaseStop stop = ChaseStop::kNone;
  /// The status that interrupted the run; OK when the run completed.
  Status interruption;
  /// Resume state for `Chase::Extend`; `frontier.valid` iff the run (or
  /// extension) reached its fixpoint.
  ChaseFrontier frontier;
  /// True when these stats come from `Chase::Extend`.
  bool incremental = false;
  /// True when `Extend` had to fall back to a full re-chase (negation,
  /// non-separable EGDs that the delta can reach with possible null
  /// merges, or a form-(10)-shaped rule the delta can feed);
  /// `fallback_reason` says why. Fallbacks are recorded, never
  /// silent — the result is still exact.
  bool extend_fallback = false;
  std::string fallback_reason;

  std::string ToString() const;
};

/// The restricted chase for Datalog± programs: TGDs fire only when the
/// head is not already satisfied (checked against the *current* instance,
/// so one fresh-null tuple satisfies later triggers with the same
/// frontier); EGDs merge labeled nulls via union-find and report
/// constant/constant clashes as kInconsistent; negative constraints are
/// boolean CQs whose satisfaction is kInconsistent.
class Chase {
 public:
  /// Extends `*instance` with all consequences of `program.rules()` (the
  /// program's own facts are NOT loaded here — build the instance with
  /// `Instance::FromProgram` or `LoadRelation` first).
  ///
  /// `*stats` is always filled with whatever accumulated before the
  /// return — including on error — so callers never lose progress
  /// accounting. Budget/deadline/cancellation trips return OK with
  /// `stats->completeness == kTruncated` and the partial instance in
  /// place; hard failures (kInconsistent, invalid rules, labeled-null
  /// ids exhausted) return non-OK.
  static Status Run(const Program& program, Instance* instance,
                    const ChaseOptions& options, ChaseStats* stats);

  /// The same run, with the stats returned by value (lost on error).
  static Result<ChaseStats> Run(const Program& program, Instance* instance,
                                const ChaseOptions& options = ChaseOptions());

  /// Incrementally extends a chased instance with `delta_facts` (new
  /// ground extensional facts): a semi-naive restart seeded with the
  /// delta, resuming from `frontier` (captured by a previous `Run` or
  /// `Extend` in `ChaseStats::frontier`). The delta facts are inserted
  /// by this call — do NOT pre-insert them (that would invalidate the
  /// frontier's generation).
  ///
  /// Exactness: the resulting instance contains the same facts as a
  /// from-scratch chase of base+delta. For programs without existential
  /// variables the rendering (`Instance::ToString`) is byte-identical;
  /// null-inventing programs may number their nulls differently
  /// (compare with `Instance::ToCanonicalString`). Programs with
  /// stratified negation, whose inserts are non-monotone and so break
  /// delta soundness, conservatively fall back to a full re-chase of
  /// `program`+delta, recorded in `stats->extend_fallback` /
  /// `fallback_reason`. EGDs without `options.egds_separable` and
  /// form-(10)-shaped rules (multi-atom head with existentials) fall
  /// back only when the position-dependency analysis
  /// (`ChaseOptions::analysis`, built locally when unset) cannot rule
  /// out an interaction with the delta: a non-separable EGD forces the
  /// fallback only if some EGD body predicate depends on a delta
  /// predicate *and* the EGD can equate labeled nulls (some occurrence
  /// of an equated variable sits at an affected position); a form-(10)
  /// rule only if one of its body predicates depends on the delta
  /// predicates (widened by all affected predicates when such a null
  /// merge is possible). The fallback re-bases
  /// on `program`'s facts, so the caller must keep the program's fact
  /// list in sync with previously applied deltas (ChaseQa::Extend does).
  ///
  /// With separable EGDs the extension runs the TGD restart first, then
  /// re-runs the EGD fixpoint; if merges occurred, full TGD passes run
  /// to the (restricted) fixpoint again.
  ///
  /// kFailedPrecondition when `frontier` is invalid or stale (the
  /// instance's generation moved); budget trips behave as in `Run`.
  static Status Extend(const Program& program, Instance* instance,
                       const ChaseFrontier& frontier,
                       const std::vector<Atom>& delta_facts,
                       const ChaseOptions& options, ChaseStats* stats);

  /// Evaluates every negative constraint of `program` against `instance`;
  /// kInconsistent with a witness if one fires. A non-null `budget` can
  /// interrupt the evaluation (truncation status propagates). A non-null
  /// `dirty` restricts the check to constraints with at least one body
  /// predicate in the set — sound only when the instance already passed a
  /// full check before the facts of those predicates were added (the
  /// incremental-extension case).
  static Status CheckConstraints(
      const Program& program, const Instance& instance,
      ExecutionBudget* budget = nullptr,
      const std::unordered_set<uint32_t>* dirty = nullptr);

  /// Applies `program`'s EGDs to fixpoint on `*instance` (union-find null
  /// merging). Returns the number of merges, or kInconsistent on a
  /// constant/constant clash. A non-null `budget` can interrupt the
  /// evaluation between EGD passes (truncation status propagates; the
  /// instance is left after the last completed pass).
  static Result<uint64_t> ApplyEgds(const Program& program,
                                    Instance* instance,
                                    ExecutionBudget* budget = nullptr);
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_CHASE_H_
