#ifndef MDQA_QUALITY_CONTEXT_H_
#define MDQA_QUALITY_CONTEXT_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/md_ontology.h"
#include "datalog/analysis.h"
#include "datalog/instance.h"
#include "datalog/program.h"
#include "qa/engines.h"
#include "relational/database.h"

namespace mdqa::quality {

class PreparedContext;

/// An externally rebuilt materialization, produced by the checkpoint
/// restore path (storage/session_image.h): the chased instance
/// reconstructed over the program's vocabulary, plus the stats of the
/// chase run that originally produced it (frontier regenerated against
/// the rebuilt instance).
struct RestoredMaterialization {
  datalog::Instance instance;
  datalog::ChaseStats stats;
};

/// Builds a RestoredMaterialization against the freshly compiled
/// contextual program (interning its constants/nulls into the program's
/// vocabulary). Supplied by the storage layer to `PrepareRestored`, which
/// keeps the quality layer free of any dependency on on-disk formats.
using MaterializationRebuilder =
    std::function<Result<RestoredMaterialization>(datalog::Program&)>;

/// The paper's context for data quality assessment (Fig. 2): the original
/// instance `D` is mapped into a contextual schema `C` that embeds the MD
/// ontology `M`, contextual predicates, and quality predicates `P_i`;
/// quality versions `S^q` of the original relations are defined by rules
/// imposing the quality conditions, and queries over the original schema
/// are rewritten to their quality versions (`Q → Q^q`) — clean query
/// answering through dimensional navigation.
///
/// Everything shares the ontology's vocabulary; contextual and quality
/// rules are plain Datalog± text added with the methods below.
class QualityContext {
 public:
  explicit QualityContext(std::shared_ptr<core::MdOntology> ontology);

  const core::MdOntology& ontology() const { return *ontology_; }

  /// Loads (or extends) the database under assessment. Relation names
  /// must not collide with ontology predicates.
  Status SetDatabase(Database database);

  const Database& database() const { return database_; }

  /// Swaps in a recovered database (checkpoint restore): the same
  /// relations — names, arities, attribute types — with whatever rows the
  /// persisted generation had after its applied updates. Everything
  /// schema-derived (mappings, quality definitions, stored rules) remains
  /// valid; only the extensional rows change. Rejects a database whose
  /// relation set or schemas disagree with the current one.
  Status ReplaceDatabase(Database database);

  /// Maps an original relation into its contextual copy (the paper's
  /// `Measurements → Measurements_c` nickname mapping): adds the rule
  /// `contextual(x̄) :- original(x̄)`.
  Status MapRelationToContext(const std::string& original,
                              const std::string& contextual);

  /// The paper's footnote-4 variant: `original` is a *footprint* of a
  /// broader contextual relation carrying `extra_attributes` additional
  /// attributes whose values are unknown — adds the TGD
  /// `contextual(x̄, z̄) :- original(x̄)` with existential z̄ (the chase
  /// fills them with labeled nulls, which contextual rules or EGDs may
  /// later resolve).
  Status MapRelationAsFootprint(const std::string& original,
                                const std::string& contextual,
                                size_t extra_attributes);

  /// Adds contextual / quality predicate definitions (Datalog± text —
  /// e.g. the paper's TakenByNurse, TakenWithTherm, Measurements').
  /// Parsed HERE, once: syntax errors surface immediately (with source
  /// spans) and the stored ASTs are composed — never re-parsed — by
  /// every later `BuildProgram()` call.
  Status AddContextualRules(const std::string& text);

  /// Declares `quality_pred` as the quality version S^q of `original` and
  /// installs its defining rules. `quality_pred` must have the arity of
  /// `original`.
  Status DefineQualityVersion(const std::string& original,
                              const std::string& quality_pred,
                              const std::string& rules_text);

  /// The quality predicate registered for `original`, or NotFound.
  Result<std::string> QualityPredicateOf(const std::string& original) const;

  /// Original relations that have a quality version defined (sorted).
  std::vector<std::string> AssessedRelations() const;

  /// Assembles the full contextual program: ontology (facts + Σ_M) +
  /// original data + mapping/contextual/quality rules. Pure AST
  /// composition — the rules were parsed when they were added.
  Result<datalog::Program> BuildProgram() const;

  /// Computes the quality version S^q of `original` as a relation (same
  /// attribute names as the original), using `engine` for certain-answer
  /// computation.
  ///
  /// A non-null `budget` bounds the whole computation (chase/search and
  /// evaluation). On a budget trip the rows derived so far are returned
  /// — sound by monotonicity — and the truncation status is stored in
  /// `*interruption` (must be non-null when `budget` is; OK when the
  /// computation completed).
  Result<Relation> ComputeQualityVersion(
      const std::string& original, qa::Engine engine = qa::Engine::kChase,
      ExecutionBudget* budget = nullptr,
      Status* interruption = nullptr) const;

  /// Clean query answering: parses `query_text` (over original relation
  /// names), rewrites every atom over an original relation to its quality
  /// version (Q → Q^q), and answers over the contextual program.
  Result<qa::AnswerSet> CleanAnswers(
      const std::string& query_text,
      qa::Engine engine = qa::Engine::kChase) const;

  /// Answers `query_text` as-is over the contextual program (no quality
  /// rewriting) — the "dirty" baseline the paper contrasts with.
  Result<qa::AnswerSet> RawAnswers(
      const std::string& query_text,
      qa::Engine engine = qa::Engine::kChase) const;

  /// Explains *why* `tuple` belongs to the quality version of
  /// `original`: chases the contextual program with provenance and
  /// renders the derivation tree of the quality-predicate fact — the
  /// dimensional navigation and quality conditions, spelled out.
  /// NotFound if the tuple is not a quality tuple.
  Result<std::string> ExplainQualityTuple(const std::string& original,
                                          const Tuple& tuple) const;

  /// The inverse question: why is `tuple` NOT a quality tuple? Runs the
  /// why-not diagnosis against the chased contextual program and names
  /// the first quality condition / navigation step that blocks.
  /// FailedPrecondition if the tuple actually is quality.
  Result<std::string> ExplainDirtyTuple(const std::string& original,
                                        const Tuple& tuple) const;

  /// Builds and chases the contextual program ONCE, returning a session
  /// that answers any number of (clean) queries against the materialized
  /// instance — the `ComputeQualityVersion`/`CleanAnswers` methods above
  /// rebuild per call, which is wasteful in query-heavy workloads.
  /// Constraint violations surface here (kInconsistent).
  Result<PreparedContext> Prepare() const;

  /// As above with explicit chase options — in particular an
  /// `ExecutionBudget`, in which case a budget trip during
  /// materialization still yields a usable session over the partial
  /// (sound) instance; check `PreparedContext::chase_stats()`.
  Result<PreparedContext> Prepare(const datalog::ChaseOptions& options) const;

  /// As above with a pre-built contextual program (must equal
  /// `BuildProgram()`'s output, possibly with provably-dead TGDs pruned)
  /// and its shared analysis — so callers that already classified the
  /// program (the assessor's pre-run gate) don't build either twice. The
  /// analysis is threaded into `ChaseOptions::analysis` (narrowing the
  /// incremental-extension fallbacks of later `ApplyUpdate`s) and kept
  /// alive by the returned session.
  Result<PreparedContext> Prepare(
      const datalog::ChaseOptions& options, datalog::Program program,
      std::shared_ptr<const datalog::ProgramAnalysis> analysis) const;

  /// `Prepare` without the chase: builds the contextual program and all
  /// session plumbing (pre-bound S^q queries, shared analysis,
  /// separability verdict) exactly as `Prepare` does, but materializes
  /// the instance through `rebuild` — the storage layer's checkpoint
  /// restore — instead of running `ChaseQa::Create`. Call after
  /// `ReplaceDatabase` installed the recovered rows, so the compiled
  /// program's extensional facts match the image the rebuild replays.
  /// This is what lets `mdqa_serve --data-dir` resume at the last
  /// committed generation without re-chasing.
  Result<PreparedContext> PrepareRestored(
      const datalog::ChaseOptions& options,
      const MaterializationRebuilder& rebuild) const;

 private:
  friend class PreparedContext;

  /// Shared tail of Prepare/PrepareRestored: everything after the program
  /// is built. `rebuild == nullptr` runs the chase (`ChaseQa::Create`);
  /// otherwise the materialization comes from the callback
  /// (`ChaseQa::Adopt`).
  Result<PreparedContext> FinishPrepare(
      const datalog::ChaseOptions& options, datalog::Program program,
      std::shared_ptr<const datalog::ProgramAnalysis> analysis,
      const MaterializationRebuilder* rebuild) const;

  std::shared_ptr<core::MdOntology> ontology_;
  Database database_;
  std::vector<std::pair<std::string, std::string>> mappings_;
  std::map<std::string, std::string> quality_of_;  // original -> S^q pred
  /// Mapping/contextual/quality rules (and any ground facts in the rule
  /// text), parsed at add time and stored as ASTs over the ontology's
  /// vocabulary — BuildProgram composes them without re-parsing.
  std::vector<datalog::Rule> context_rules_;
  std::vector<datalog::Atom> context_facts_;
};

/// One relation's worth of changes in a `DeltaBatch`.
struct RelationDelta {
  std::string relation;  // an original relation of the database
  std::vector<Tuple> insert_rows;
  std::vector<Tuple> delete_rows;
};

/// A batch of updates to the database under assessment, applied
/// atomically by `PreparedContext::ApplyUpdate`. Within the batch,
/// deletions apply before insertions.
struct DeltaBatch {
  std::vector<RelationDelta> deltas;

  bool HasDeletions() const {
    for (const RelationDelta& d : deltas) {
      if (!d.delete_rows.empty()) return true;
    }
    return false;
  }

  /// Names of the relations the batch touches (sorted, deduplicated).
  std::vector<std::string> Relations() const;
};

/// A chase-once/query-many session over a QualityContext (obtain via
/// `QualityContext::Prepare`). All answers are certain answers against
/// the single materialized instance.
class PreparedContext {
 public:
  /// Answers `query_text` with the Q → Q^q quality rewriting applied.
  Result<qa::AnswerSet> CleanAnswers(const std::string& query_text) const;

  /// Answers `query_text` as written.
  Result<qa::AnswerSet> RawAnswers(const std::string& query_text) const;

  /// The parse/evaluate split the serve layer builds on. Parsing a query
  /// text interns new symbols into the shared (single-mutator)
  /// Vocabulary, while evaluating a *prepared* query only reads the
  /// materialized instance. `mdqa_serve` therefore serializes Prepare*
  /// calls behind a write lock and runs any number of `Answer` calls
  /// concurrently under a read lock (see docs/robustness.md); it also
  /// re-`Answer`s the same prepared query on budget-escalation retries
  /// without re-parsing.
  ///
  /// `PrepareCleanQuery` applies the Q → Q^q rewriting; `PrepareRawQuery`
  /// keeps the query as written.
  Result<datalog::ConjunctiveQuery> PrepareCleanQuery(
      const std::string& query_text) const;
  Result<datalog::ConjunctiveQuery> PrepareRawQuery(
      const std::string& query_text) const;

  /// Evaluates a query prepared above. Thread-safe: reads only the
  /// materialized instance and the pre-bound query. A non-null `budget`
  /// bounds the evaluation; a trip returns the answers found so far with
  /// `AnswerSet::completeness == kTruncated` (sound, by monotonicity).
  Result<qa::AnswerSet> Answer(const datalog::ConjunctiveQuery& query,
                               ExecutionBudget* budget = nullptr) const;

  /// The quality version of `original`, read off the materialized
  /// instance. A non-null `budget` bounds the read-off evaluation; on a
  /// budget trip the rows found so far are returned with the truncation
  /// status in `*interruption` (must be non-null when `budget` is).
  ///
  /// Thread-safe: the query was pre-bound by `Prepare` and evaluation
  /// only reads the materialized instance, so the assessor may call this
  /// concurrently for different relations (each call with its own
  /// budget/interruption).
  Result<Relation> QualityVersion(const std::string& original,
                                  ExecutionBudget* budget = nullptr,
                                  Status* interruption = nullptr) const;

  /// Applies `batch` to the database under assessment and returns a NEW
  /// session reflecting it; this session is unchanged and stays valid.
  /// The new session's instance *shares* every untouched fact table with
  /// this one (copy-on-write snapshots), and its materialization is
  /// maintained incrementally: insert-only batches resume the chase from
  /// the captured frontier (`Chase::Extend`); batches with deletions —
  /// and programs the incremental path cannot maintain — fall back to an
  /// exact full re-chase, recorded in the new session's `chase_stats()`.
  /// Deleted rows must exist (kNotFound otherwise); inserted rows must
  /// match the relation's schema.
  Result<PreparedContext> ApplyUpdate(const DeltaBatch& batch) const;

  /// Relations changed by the `ApplyUpdate` that created this session
  /// (sorted; empty for a session born from `Prepare`). The assessor's
  /// `Reassess` keys its dependency analysis off this.
  const std::vector<std::string>& updated_relations() const {
    return updated_relations_;
  }

  const datalog::Instance& instance() const { return chased_.instance(); }
  const datalog::ChaseStats& chase_stats() const { return chased_.stats(); }

  /// The compiled contextual program this session materialized, with its
  /// extensional facts kept in sync across `ApplyUpdate`s.
  const datalog::Program& program() const { return chased_.program(); }

  /// The shared syntactic analysis of the contextual program's rules
  /// (rules never change across updates, so neither does this). Kept
  /// alive by the session; `Assessor::Reassess` reuses it instead of
  /// re-classifying.
  const datalog::ProgramAnalysis& analysis() const { return *analysis_; }

  /// Table statistics of the materialized instance, collected once per
  /// snapshot (at Prepare and after each ApplyUpdate): row counts,
  /// per-position distinct counts, totals. Feeds the planner's cost
  /// model and the report's actual-cost field.
  const datalog::InstanceStatistics& statistics() const {
    return statistics_;
  }

  /// Statistics of the session program's *extensional* facts (the EDB
  /// the cost model prices engines against): exactly
  /// `analysis::CostModel::CollectEdbStats(program())`, cached keyed on
  /// `Program::generation()`. Thread-safe; `Assessor::Reassess` calls
  /// this instead of recomputing per reassessment.
  ///
  /// An insert-only `ApplyUpdate` whose chase completed carries the
  /// parent's statistics forward when they were already computed, the
  /// program has no EGDs and no rule derives an inserted predicate: only
  /// the inserted predicates' entries are read again, off the new
  /// instance's tables. Every other session collects them lazily, on
  /// first use, from the whole fact list. Moving a session keeps the
  /// cache; copying one resets it (see `EdbStatsCache`).
  const datalog::InstanceStatistics& EdbStatistics() const;

  /// The database as this session sees it (after any applied updates).
  const Database& database() const { return database_; }

 private:
  friend class QualityContext;
  PreparedContext(std::map<std::string, std::string> quality_of,
                  std::map<std::string, datalog::ConjunctiveQuery> queries,
                  Database database, qa::ChaseQa chased)
      : quality_of_(std::move(quality_of)),
        quality_queries_(std::move(queries)),
        database_(std::move(database)),
        chased_(std::move(chased)) {}

  Result<qa::AnswerSet> Evaluate(datalog::ConjunctiveQuery query,
                                 ExecutionBudget* budget = nullptr) const;

  /// ApplyUpdate's tail: seeds this new session's EDB-statistics cache
  /// from `parent`'s when the carry described at `EdbStatistics` holds
  /// for the extensional `inserts`; otherwise leaves it cold.
  void CarryEdbStatistics(const PreparedContext& parent,
                          const std::vector<datalog::Atom>& inserts);

  std::map<std::string, std::string> quality_of_;
  /// Per-relation S^q read-off queries, pre-bound in Prepare so that
  /// QualityVersion never touches the shared (not thread-safe)
  /// Vocabulary — the parallel assessor relies on this.
  std::map<std::string, datalog::ConjunctiveQuery> quality_queries_;
  Database database_;  // original relations (schemas for QualityVersion)
  qa::ChaseQa chased_;
  /// Shared with ChaseQa's options (raw pointer) — the shared_ptr here
  /// keeps it alive for the session and all sessions derived from it.
  std::shared_ptr<const datalog::ProgramAnalysis> analysis_;
  datalog::InstanceStatistics statistics_;
  std::vector<std::string> updated_relations_;  // set by ApplyUpdate

  /// EDB-statistics cache behind EdbStatistics(). Copying a session
  /// (ApplyUpdate's starting point) RESETS the cache rather than copying
  /// it: a rebuilt program (the deletion path constructs one from
  /// scratch) can coincidentally land on the parent's generation value
  /// with a different fact list, so inherited entries are never safe.
  /// Moving a session KEEPS the cache: the program it describes moves
  /// with it. A moved-from session may be in use by no other thread.
  struct EdbStatsCache {
    std::mutex mu;
    bool valid = false;
    uint64_t generation = 0;
    datalog::InstanceStatistics stats;
    EdbStatsCache() = default;
    EdbStatsCache(const EdbStatsCache&) {}  // fresh, invalid cache
    EdbStatsCache(EdbStatsCache&& other) noexcept {
      *this = std::move(other);
    }
    EdbStatsCache& operator=(const EdbStatsCache&) {
      valid = false;
      return *this;
    }
    EdbStatsCache& operator=(EdbStatsCache&& other) noexcept {
      valid = other.valid;
      generation = other.generation;
      stats = std::move(other.stats);
      other.valid = false;
      return *this;
    }
  };
  mutable EdbStatsCache edb_stats_;
};

}  // namespace mdqa::quality

#endif  // MDQA_QUALITY_CONTEXT_H_
