#ifndef MDQA_QUALITY_ASSESSOR_H_
#define MDQA_QUALITY_ASSESSOR_H_

#include <string>
#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "quality/context.h"
#include "quality/measures.h"

namespace mdqa::quality {

/// A relation whose quality version could not be computed within its
/// budget (or tripped a fault probe): the assessment degrades this entry
/// instead of failing the whole report.
struct RelationFailure {
  std::string relation;
  /// The status that stopped the computation (after the final attempt).
  Status status;
  /// Attempts made, including retries under escalated budgets.
  int attempts = 0;
};

/// A full assessment of the database under a context: per-relation quality
/// versions and measures, plus validation results.
struct AssessmentReport {
  /// One entry per relation with a defined quality version.
  std::vector<QualityMeasures> per_relation;
  /// Computed quality versions, parallel to `per_relation`.
  std::vector<Relation> quality_versions;
  /// The dirty tuples per relation (D \ D^q), parallel to `per_relation`
  /// — the rows a cleaning pass would flag for review.
  std::vector<Relation> dirty_tuples;
  /// Micro-averaged precision over all assessed relations.
  double overall_precision = 1.0;
  /// Outcome of the ontology's dimensional constraints against the
  /// contextual data (OK, or the first kInconsistent witness).
  Status constraint_check;
  /// Outcome of the form-(1) referential validation.
  Status referential_check;
  /// Relations whose quality version blew its budget / tripped a fault —
  /// excluded from the vectors above and from `overall_precision`.
  std::vector<RelationFailure> degraded;
  /// kTruncated when the report rests on partial work: a truncated
  /// materialization, a truncated quality-version read-off, or one or
  /// more degraded relations. The measures reported are still sound
  /// under-approximations of the quality versions (chase monotonicity).
  Completeness completeness = Completeness::kComplete;
  /// The first budget status that forced the degradation (OK when
  /// complete).
  Status interruption;

  // --- pre-run gate (mdqa_lint + classification; see AssessOptions) ---
  /// Syntactic class of the compiled contextual program
  /// (ProgramAnalysis::ClassName()).
  std::string program_class;
  /// Engine the run actually used.
  qa::Engine engine_used = qa::Engine::kChase;
  /// Engine the cost-based planner recommends, and why.
  qa::Engine engine_recommended = qa::Engine::kChase;
  std::string engine_reason;
  /// The planner's predicted cost of `engine_used` (deterministic work
  /// units — a pure function of rules + EDB statistics, see
  /// analysis::CostModel) and the measured counterpart: the total fact
  /// count of the materialized instance the run evaluated on (0 when
  /// materialization failed as kInconsistent). Both are integers so
  /// reports stay byte-identical across serial/parallel and
  /// incremental/from-scratch runs.
  uint64_t predicted_cost = 0;
  uint64_t actual_cost = 0;
  /// Lint findings over the compiled program and ontology (0/0 when the
  /// gate is disabled). `lint_text` renders warnings and errors.
  size_t lint_errors = 0;
  size_t lint_warnings = 0;
  std::string lint_text;

  /// Per-tuple verdict lookups by relation name (the scenario-matrix
  /// harness scores these against generated ground truth): the quality
  /// version D^q, the dirty rows D \ D^q, and the measures entry.
  /// nullptr when the relation was degraded or never assessed.
  const Relation* QualityVersionOf(const std::string& relation) const;
  const Relation* DirtyOf(const std::string& relation) const;
  const QualityMeasures* MeasuresOf(const std::string& relation) const;

  std::string ToString() const;

  /// Machine-readable form: checks, per-relation measures, and the dirty
  /// tuples (as arrays of display strings) — for dashboards/monitoring.
  std::string ToJson() const;
};

/// Controls for one assessment run.
struct AssessOptions {
  qa::Engine engine = qa::Engine::kChase;
  /// Global budget for the run: its deadline, cancellation token, and
  /// fault injector also govern every per-relation computation (via
  /// derived budgets; the probe "assessor:relation" fires once per
  /// relation attempt), and the initial materialization charges against
  /// it directly. Null = unlimited. Not owned.
  ExecutionBudget* budget = nullptr;
  /// Per-relation step cap (0 = uncapped). Each relation's quality
  /// version is computed under its own derived budget with this cap, so
  /// one runaway relation cannot starve the others.
  uint64_t per_relation_max_steps = 0;
  /// A relation whose budget trips is retried up to `max_retries` more
  /// times, multiplying its step cap by `escalation_factor` each
  /// attempt, before being degraded to a RelationFailure entry.
  int max_retries = 1;
  double escalation_factor = 4.0;
  /// Pre-run static analysis gate: lints the compiled contextual program
  /// and the ontology before any chase work. Error-level findings abort
  /// the run with kFailedPrecondition (the rendered diagnostics ride in
  /// the status message). Findings are recorded in the report either way.
  bool lint_gate = true;
  /// Drop TGDs the dead-rule analysis proves irrelevant (no influence on
  /// any quality predicate, EGD, constraint, or output predicate) before
  /// materializing — the chase then skips their consequences entirely.
  /// Answer-preserving: quality versions, measures, and consistency
  /// verdicts are unchanged; only the materialization (and therefore
  /// `actual_cost`) shrinks. The pre-run gate still classifies and lints
  /// the *unpruned* program. Off by default.
  bool prune_dead_rules = false;
  /// When non-null, on the prepared kChase path, the per-relation
  /// quality versions are computed concurrently on this pool, each under
  /// its own derived budget, and merged into the report in relation
  /// order. The materialization chase itself runs serially. Reports are
  /// byte-identical to a serial run as long as no deadline, cancellation,
  /// or fault probe trips (per-relation *counter* caps are private to
  /// each relation, so their kTruncated outcomes are deterministic at any
  /// thread count). After a cancellation a parallel run may still report
  /// relations a serial run would have skipped — work already finished is
  /// kept. Not owned.
  ThreadPool* pool = nullptr;
};

/// Drives the Fig. 2 pipeline end to end: validates the ontology, runs
/// constraint checks, computes every registered quality version, and
/// measures each original relation against it.
///
/// With an `AssessOptions` budget, failures are isolated per relation:
/// a relation whose computation exhausts its (escalating) budget is
/// recorded in `AssessmentReport::degraded` while every other relation
/// is still assessed; cancellation stops the run but still returns the
/// report built so far.
class Assessor {
 public:
  explicit Assessor(const QualityContext* context) : context_(context) {}

  Result<AssessmentReport> Assess(
      qa::Engine engine = qa::Engine::kChase) const;

  Result<AssessmentReport> Assess(const AssessOptions& options) const;

  /// Incremental re-assessment after a `PreparedContext::ApplyUpdate`:
  /// `session` is the updated session, `previous` the report of the
  /// session it was derived from. Only relations whose quality queries
  /// transitively depend on the updated relations (predicate-dependency
  /// closure over the contextual program) — plus any relation missing
  /// from or degraded in `previous` — are recomputed; every other entry
  /// is copied from `previous` verbatim. Programs with EGDs recompute
  /// every relation (a null merge can ripple into any predicate). The
  /// report renders byte-identically to a full assessment of the updated
  /// database. Always reads the session's materialized instance (chase
  /// engine), whatever `options.engine` says.
  Result<AssessmentReport> Reassess(
      const PreparedContext& session, const AssessmentReport& previous,
      const AssessOptions& options = AssessOptions()) const;

 private:
  const QualityContext* context_;
};

}  // namespace mdqa::quality

#endif  // MDQA_QUALITY_ASSESSOR_H_
