#ifndef MDQA_QA_CHASE_QA_H_
#define MDQA_QA_CHASE_QA_H_

#include <vector>

#include "base/result.h"
#include "datalog/chase.h"
#include "datalog/cq_eval.h"

namespace mdqa::qa {

/// Materialization-based certain-answer engine: runs the (restricted,
/// possibly level-bounded) chase of the program over its extensional data
/// once, then evaluates conjunctive queries against the chased instance.
/// Certain answers are the null-free tuples — sound and, for weakly-sticky
/// programs chased deep enough for the query at hand, complete (the paper's
/// §IV tractability claim; the round cap of `ChaseOptions::budget`,
/// `ExecutionBudget::set_max_rounds`, is the level bound).
class ChaseQa {
 public:
  /// A `ChaseOptions::budget` trip during materialization yields a
  /// *usable* engine over the partial (sound) instance; inspect
  /// `stats().completeness` to see whether the chase was truncated.
  static Result<ChaseQa> Create(
      const datalog::Program& program,
      const datalog::ChaseOptions& options = datalog::ChaseOptions());

  /// Adopts an already-materialized chase result instead of running one —
  /// the checkpoint-restore path (storage/session_image.h): the instance
  /// was rebuilt from a persisted image of a completed chase over exactly
  /// this program's extensional facts, and `stats` are the stats of that
  /// original run (with the frontier regenerated against the rebuilt
  /// instance). Validates the wiring it can see: the instance must share
  /// the program's vocabulary, and a valid frontier must match the
  /// instance's generation — everything deeper is the caller's contract,
  /// enforced end-to-end by the crash matrix's oracle byte-compare.
  static Result<ChaseQa> Adopt(datalog::Program program,
                               const datalog::ChaseOptions& options,
                               datalog::Instance instance,
                               datalog::ChaseStats stats);

  /// Adds new extensional facts and re-chases the existing materialized
  /// instance (facts already derived are kept; the restricted chase
  /// skips satisfied heads, so only consequences of the new facts are
  /// actually computed). The common data-quality workflow: today's
  /// measurements arrive, yesterday's materialization stays warm.
  Result<datalog::ChaseStats> AddFactsAndRechase(
      const std::vector<datalog::Atom>& facts);

  /// Incremental counterpart of AddFactsAndRechase: resumes the chase
  /// from the frontier captured by the last materialization
  /// (`Chase::Extend`) instead of re-running it. Exact — programs the
  /// incremental path cannot maintain fall back to a full re-chase,
  /// recorded in the returned stats (`extend_fallback`). The new facts
  /// are also appended to the engine's program so fallbacks (now or on a
  /// later update) re-base on the complete extensional set.
  /// kFailedPrecondition when the last chase was truncated (no frontier).
  Result<datalog::ChaseStats> Extend(const std::vector<datalog::Atom>& facts);

  /// General update: `inserts` and `deletes` of extensional facts. With
  /// no deletions this is `Extend`. Deletions are non-monotone, so they
  /// rebuild the extensional set and re-chase from scratch — an exact
  /// result, recorded as a fallback in the returned stats. Each deleted
  /// atom must currently be an extensional fact (kNotFound otherwise).
  Result<datalog::ChaseStats> Update(const std::vector<datalog::Atom>& inserts,
                                     const std::vector<datalog::Atom>& deletes);

  /// Certain answers: null-free tuples only. A non-null `budget` bounds
  /// the query evaluation itself (probe "cq:row"); on a budget trip the
  /// answers found so far are returned and the truncation status is
  /// stored in `*interruption` (which must be non-null iff `budget` is).
  Result<std::vector<std::vector<datalog::Term>>> Answers(
      const datalog::ConjunctiveQuery& query,
      ExecutionBudget* budget = nullptr,
      Status* interruption = nullptr) const;

  /// All homomorphic answers, including tuples with labeled nulls
  /// (the "possible answers" view used for form-(10) disjunctive data).
  Result<std::vector<std::vector<datalog::Term>>> PossibleAnswers(
      const datalog::ConjunctiveQuery& query,
      ExecutionBudget* budget = nullptr,
      Status* interruption = nullptr) const;

  Result<bool> AnswerBoolean(const datalog::ConjunctiveQuery& query,
                             ExecutionBudget* budget = nullptr,
                             Status* interruption = nullptr) const;

  const datalog::Instance& instance() const { return instance_; }
  const datalog::ChaseStats& stats() const { return stats_; }
  /// The engine's program — rules as given, extensional facts kept in
  /// sync with every applied update (Extend appends, Update rebuilds).
  const datalog::Program& program() const { return program_; }

 private:
  ChaseQa(datalog::Program program, datalog::ChaseOptions options,
          datalog::Instance instance, datalog::ChaseStats stats)
      : program_(std::move(program)),
        options_(options),
        instance_(std::move(instance)),
        stats_(stats) {}

  datalog::Program program_;  // kept for incremental re-chasing
  datalog::ChaseOptions options_;
  datalog::Instance instance_;
  datalog::ChaseStats stats_;
};

}  // namespace mdqa::qa

#endif  // MDQA_QA_CHASE_QA_H_
