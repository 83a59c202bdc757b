#ifndef MDQA_QA_REWRITER_H_
#define MDQA_QA_REWRITER_H_

#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"

namespace mdqa::qa {

struct RewriteOptions {
  /// When non-null, the rewriting loop polls this budget (probe
  /// "rewrite:iter") and evaluation polls it per row; it is the only
  /// resource limit (null = unlimited). A budget trip stops the rewriting
  /// *gracefully*: the UCQ built so far is returned with
  /// `RewriteStats::completeness == kTruncated` — every disjunct is
  /// individually sound, so evaluating the partial UCQ under-approximates
  /// the certain answers. Not owned.
  ExecutionBudget* budget = nullptr;
  /// When non-null, `Answers` evaluates the UCQ's disjuncts concurrently
  /// on this pool (the EDB is read-only) and merges the per-disjunct
  /// tuples in disjunct order, so the result is identical to the serial
  /// evaluation. Rewriting itself stays single-threaded (it is a shared
  /// worklist, and generation order fixes the disjunct order). Not owned.
  ThreadPool* pool = nullptr;
};

struct RewriteStats {
  size_t generated = 0;   ///< CQs produced (before dedup)
  size_t kept = 0;        ///< CQs in the final UCQ
  size_t iterations = 0;
  /// kTruncated when the budget cut rewriting (or evaluation) short.
  Completeness completeness = Completeness::kComplete;
  /// The budget status that interrupted the run (OK when complete).
  Status interruption;
};

/// Backward-chaining UCQ rewriting (PerfectRef/XRewrite style) for the
/// paper's §IV claim: *upward-only* MD ontologies admit first-order
/// rewritings evaluable directly on the extensional database. Starting
/// from the input CQ, every atom unifiable with a TGD head is replaced by
/// the TGD body under the unifier, subject to the standard applicability
/// condition: a term unified with an existential head variable must be a
/// non-answer, non-shared variable (otherwise the resolution cannot be
/// sound). A factorization step merges unifiable same-predicate atoms to
/// keep the procedure complete in the presence of existentials. Results
/// are canonicalized and deduplicated.
///
/// The procedure works for any TGD set with single-atom heads; it simply
/// may not terminate when the program is recursive — which is why the
/// ontology layer gates it on `OntologyProperties::upward_only` (upward
/// navigation strictly descends the finite category DAG, so the rewriting
/// terminates). A rewriting that generates more than 20,000 CQs fails
/// with kResourceExhausted: the rules are refused as not FO-rewritable
/// for the query. That refusal holds with or without a budget.
class UcqRewriter {
 public:
  /// Rewrites `query` against `program`'s TGDs into a UCQ over the
  /// extensional predicates.
  static Result<std::vector<datalog::ConjunctiveQuery>> Rewrite(
      const datalog::Program& program, const datalog::ConjunctiveQuery& query,
      const RewriteOptions& options, RewriteStats* stats);

  static Result<std::vector<datalog::ConjunctiveQuery>> Rewrite(
      const datalog::Program& program,
      const datalog::ConjunctiveQuery& query) {
    RewriteStats stats;
    return Rewrite(program, query, RewriteOptions{}, &stats);
  }

  /// Rewrites and evaluates over `edb` (which must NOT be chased —
  /// that is the point), returning certain answers. A non-null `stats`
  /// receives the rewrite statistics including the completeness tag.
  static Result<std::vector<std::vector<datalog::Term>>> Answers(
      const datalog::Program& program, const datalog::Instance& edb,
      const datalog::ConjunctiveQuery& query,
      const RewriteOptions& options = RewriteOptions(),
      RewriteStats* stats = nullptr);
};

}  // namespace mdqa::qa

#endif  // MDQA_QA_REWRITER_H_
