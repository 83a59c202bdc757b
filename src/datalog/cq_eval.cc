#include "datalog/cq_eval.h"

#include <unordered_set>

namespace mdqa::datalog {

Result<bool> CqEvaluator::Satisfiable(
    const std::vector<Atom>& atoms, const std::vector<Comparison>& comparisons,
    const Subst& initial) const {
  bool found = false;
  Status st = Enumerate(atoms, comparisons, initial, {},
                        [&found](const Subst&) {
                          found = true;
                          return false;  // stop at first witness
                        });
  if (!st.ok()) return st;
  return found;
}

Result<std::vector<std::vector<Term>>> CqEvaluator::Answers(
    const ConjunctiveQuery& query, Status* interruption) const {
  if (interruption != nullptr) *interruption = Status::Ok();
  MDQA_RETURN_IF_ERROR(query.Validate());
  std::vector<std::vector<Term>> out;
  std::unordered_set<size_t> seen;  // hash of answer tuple (exact dedup below)
  auto on_match = [&](const Subst& subst) {
    std::vector<Term> tuple;
    tuple.reserve(query.answer.size());
    for (Term t : query.answer) tuple.push_back(Resolve(subst, t));
    // Exact dedup via linear probe within hash bucket set.
    size_t h = tuple.size();
    for (Term t : tuple) HashCombine(&h, TermHash{}(t));
    if (seen.insert(h).second) {
      out.push_back(std::move(tuple));
    } else {
      // Possible collision: verify against existing answers.
      bool dup = false;
      for (const auto& existing : out) {
        if (existing == tuple) {
          dup = true;
          break;
        }
      }
      if (!dup) out.push_back(std::move(tuple));
    }
    return true;
  };
  Status st = Enumerate(query.body, query.negated, query.comparisons,
                        Subst{}, {}, on_match);
  if (!st.ok()) {
    // A budget trip with an interruption out-param degrades gracefully:
    // the tuples collected so far are each genuine answers.
    if (interruption != nullptr && ExecutionBudget::IsTruncation(st)) {
      *interruption = std::move(st);
      return out;
    }
    return st;
  }
  return out;
}

Result<bool> CqEvaluator::AnswerBoolean(const ConjunctiveQuery& query,
                                        Status* interruption) const {
  if (interruption != nullptr) *interruption = Status::Ok();
  MDQA_RETURN_IF_ERROR(query.Validate());
  bool found = false;
  Status st = Enumerate(query.body, query.negated, query.comparisons,
                        Subst{}, {}, [&found](const Subst&) {
                          found = true;
                          return false;  // stop at first witness
                        });
  if (!st.ok()) {
    if (interruption != nullptr && ExecutionBudget::IsTruncation(st)) {
      *interruption = std::move(st);
      return found;
    }
    return st;
  }
  return found;
}

}  // namespace mdqa::datalog
