#ifndef MDQA_DATALOG_JOIN_H_
#define MDQA_DATALOG_JOIN_H_

#include <functional>
#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/unify.h"

namespace mdqa::datalog {

/// Vectorized (block-at-a-time) conjunctive-body join executor over the
/// fact tables' column segments — the engine behind `CqEvaluator` for
/// whole-relation enumerations (empty initial bindings). Seeded point
/// lookups stay on the backtracking path: their per-run work cannot
/// amortize the plan compilation this executor performs up front (see
/// the dispatch note in cq_eval.cc).
///
/// The executor compiles the body once — atom order, per-position roles
/// (constant / bound slot / new slot / intra-atom repeat), and the depth
/// at which each comparison and negated atom first becomes decidable —
/// then pushes *blocks* of partial bindings through the pipeline. Each
/// depth resolves its candidates per binding from the segments'
/// dictionary postings (driver = the most selective bound position,
/// other bound positions verified by 4-byte code comparison), or, when
/// the incoming block is large relative to the table, from a batch hash
/// index built once over the in-window rows keyed on the bound-position
/// tuple — with full term verification of every chain hit, since the
/// combined 64-bit keys can collide. That index is flat: one open-
/// addressing array of distinct keys, each slot holding the first row of
/// its key's chain, and one array linking each row to the next row with
/// the same key, ascending. It allocates nothing per key.
///
/// Order contract: the legacy backtracking evaluator's enumeration order
/// is a branch-independent function of (initial bindings, table sizes) —
/// its greedy atom choice never depends on candidate values, and its
/// candidate lists are always ascending row order. The executor fixes the
/// same atom order up front and emits candidates ascending per binding
/// (depth-first chunk flushes preserve lexicographic order), so the
/// solutions, and therefore every downstream artifact (Answers
/// first-derived order, EGD merge order, AssessmentReports), are
/// identical to the backtracking evaluator's. So are the `EvalStats`
/// counters, except that the batch hash probe examines only the rows of
/// its bound key's chain: there `rows_tried` (and step charging) can be
/// lower than the backtracking path's, which walks every row of its most
/// selective bound position. The executor differential harness
/// (tests/executor_diff_test.cc) gates this solution by solution.
class BlockJoin {
 public:
  BlockJoin(const Instance& instance, EvalStats* stats,
            ExecutionBudget* budget)
      : instance_(instance), stats_(stats), budget_(budget) {}

  /// Same contract as CqEvaluator::Enumerate (which validates `windows`
  /// and performs the up-front budget poll before dispatching here).
  /// Every binding of `initial` must resolve to a ground term.
  Status Run(const std::vector<Atom>& atoms, const std::vector<Atom>& negated,
             const std::vector<Comparison>& comparisons, const Subst& initial,
             const std::vector<AtomLevelWindow>& windows,
             const std::function<bool(const Subst&)>& on_match);

 private:
  const Instance& instance_;
  EvalStats* stats_;         // optional, not owned
  ExecutionBudget* budget_;  // optional, not owned
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_JOIN_H_
