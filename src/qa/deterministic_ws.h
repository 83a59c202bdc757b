#ifndef MDQA_QA_DETERMINISTIC_WS_H_
#define MDQA_QA_DETERMINISTIC_WS_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/provenance.h"

namespace mdqa::qa {

struct WsQaOptions {
  /// Maximum nesting depth of TGD applications along one proof branch
  /// (the height of the paper's resolution proof schema). 0 = automatic:
  /// `4 * #TGDs + 8`, ample for dimensional-navigation chains. This keeps
  /// the search finite; it is a completeness parameter (answers needing
  /// deeper proofs are not found), not a resource limit.
  uint32_t max_depth = 0;
  /// When non-null, every firing records its ground body witness (see
  /// datalog/provenance.h) — the materialized resolution proof schema.
  datalog::ProvenanceStore* provenance = nullptr;
  /// Expansion memoization (goal pattern → depth/epoch). Disable only to
  /// test it — without it, repeated subgoals re-derive their subtrees.
  bool use_memo = true;
  /// When non-null, the proof search polls this budget (probe "ws:step")
  /// and charges steps/materialized facts against it; it is the only
  /// resource limit (null = unlimited). Budget trips stop the search
  /// *gracefully*: `Answers`/`PossibleAnswers` return the solutions found
  /// so far (each backed by a real proof, hence sound) with
  /// `WsQaStats::completeness == kTruncated`. Not owned.
  ExecutionBudget* budget = nullptr;
};

struct WsQaStats {
  uint64_t resolution_steps = 0;
  uint64_t rule_applications = 0;
  uint64_t facts_materialized = 0;
  uint64_t passes = 0;
  /// kTruncated when the last public call was cut short by the budget;
  /// answers returned are a sound under-approximation.
  Completeness completeness = Completeness::kComplete;
  /// The budget status that interrupted the last call (OK when complete).
  Status interruption;
};

/// The paper's `DeterministicWSQAns` (§IV): a deterministic top-down
/// backtracking search for accepting resolution proof schemas, realized as
/// goal-directed resolution with lazy materialization.
///
/// Query atoms are resolved left to right. A goal is resolved either by a
/// substitution mapping it onto a ground atom of the working instance
/// (initially the extensional database — substitutions are *derived from
/// ground data*, as in the paper, not guessed), or by applying a TGD whose
/// head unifies with it: the TGD's body is proven recursively and each
/// proof *fires* the TGD (restricted-chase semantics, fresh labeled nulls
/// for existentials, shared across multi-atom heads), materializing head
/// facts the goal is then re-matched against. Materialization is what
/// lets later goals join on the invented nulls — the tree of firings is
/// exactly a resolution proof schema of bounded depth.
///
/// Backtracking uses an explicit binding trail; an expansion memo (goal
/// pattern → depth/instance-epoch) avoids re-deriving subtrees. Because a
/// goal's fact candidates are snapshotted before deeper goals materialize,
/// each public call iterates proof passes until the working instance
/// stops growing — every pass is monotone, so the fixpoint restores
/// completeness up to the depth bound. For weakly-sticky programs a
/// polynomial depth suffices (Calì–Gottlob–Pieris), which is the paper's
/// tractability claim.
class DeterministicWsQa {
 public:
  explicit DeterministicWsQa(const datalog::Program& program,
                             const WsQaOptions& options = WsQaOptions());

  /// Boolean CQ entailment.
  Result<bool> AnswerBoolean(const datalog::ConjunctiveQuery& query);

  /// Certain answers to an open CQ (null-free tuples).
  Result<std::vector<std::vector<datalog::Term>>> Answers(
      const datalog::ConjunctiveQuery& query);

  /// All answer tuples, including ones containing labeled nulls.
  Result<std::vector<std::vector<datalog::Term>>> PossibleAnswers(
      const datalog::ConjunctiveQuery& query);

  const WsQaStats& stats() const { return stats_; }
  const datalog::Instance& working_instance() const { return work_; }

 private:
  using Subst = datalog::Subst;

  // One full left-to-right proof pass; solutions go to `on_solution`
  // (return false to stop). Grows `work_` as a side effect.
  Status SolveGoals(const std::vector<datalog::Atom>& goals,
                    const std::vector<datalog::Comparison>& comparisons,
                    size_t idx, Subst* subst, std::vector<uint32_t>* trail,
                    uint32_t depth,
                    const std::function<bool(const Subst&)>& on_solution,
                    bool* stop);

  // Phase 1 of goal resolution: apply every TGD whose head unifies with
  // the (instantiated) goal, materializing the resulting firings.
  Status ExpandGoal(const datalog::Atom& goal_inst, uint32_t depth);

  // Fires `rule` (already renamed apart) under the body solution `theta`:
  // restricted-chase check, fresh nulls, insert head facts.
  Status Fire(const datalog::Rule& rule, const Subst& theta);

  datalog::Rule RenameApart(const datalog::Rule& rule);

  std::string CanonicalPattern(const datalog::Atom& atom) const;

  uint32_t EffectiveDepth() const;

  Result<std::vector<std::vector<datalog::Term>>> Enumerate(
      const datalog::ConjunctiveQuery& query, bool certain_only);

  std::shared_ptr<datalog::Vocabulary> vocab_;
  std::vector<datalog::Rule> tgds_;
  datalog::Instance work_;
  WsQaOptions options_;
  WsQaStats stats_;
  // pattern -> (depth expanded at, instance size after expansion); skip
  // re-expansion when nothing changed since.
  std::unordered_map<std::string, std::pair<uint32_t, size_t>> memo_;
  // First budget trip of the current public call; non-OK makes the
  // search unwind cooperatively (checked at every SolveGoals entry).
  Status budget_interrupt_;
};

}  // namespace mdqa::qa

#endif  // MDQA_QA_DETERMINISTIC_WS_H_
