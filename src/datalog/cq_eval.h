#ifndef MDQA_DATALOG_CQ_EVAL_H_
#define MDQA_DATALOG_CQ_EVAL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "datalog/instance.h"
#include "datalog/unify.h"

namespace mdqa::datalog {

/// Per-atom derivation-level window, used by the semi-naive chase: a delta
/// evaluation pins one atom to "new" facts and earlier atoms to "old" ones.
struct AtomLevelWindow {
  uint32_t min_level = 0;
  uint32_t max_level = std::numeric_limits<uint32_t>::max();
};

/// Profiling counters for one or more evaluations — wire a struct in via
/// the evaluator's constructor to see where join time goes (used by the
/// C3 experiment and by tests asserting the planner uses indexes).
struct EvalStats {
  uint64_t rows_tried = 0;     ///< candidate rows examined
  uint64_t atoms_matched = 0;  ///< successful atom unifications
  uint64_t index_probes = 0;   ///< candidate sets fetched via an index
  uint64_t full_scans = 0;     ///< candidate sets requiring a table scan
  uint64_t solutions = 0;      ///< homomorphisms delivered to on_match
};

/// Evaluates conjunctive queries (atom lists + built-in comparisons +
/// negated atoms) over an `Instance` with one block-at-a-time join
/// executor (datalog/join.cc) over the fact tables' rows and their
/// per-position postings.
///
/// The executor compiles the body once — atom order, per-position roles
/// (constant / bound slot / new slot / intra-atom repeat), and the depth
/// at which each comparison and negated atom first becomes decidable —
/// then pushes *blocks* of partial bindings through the pipeline. Each
/// depth resolves its candidates per binding from the segments'
/// dictionary postings (driver = the most selective bound position, the
/// other bound positions verified against the row by term equality), or,
/// when the incoming block is large relative to the table, from a batch
/// hash index built once over the in-window rows keyed on the
/// bound-position tuple — with full term verification of every chain
/// hit, since the combined 64-bit keys can collide.
///
/// Order contract: the atom order is fixed up front by a greedy rule —
/// most bound positions first (constants, seeded variables and variables
/// of earlier atoms), then the smaller table, then the lower index — that
/// depends only on the seed's variables and the table sizes, never on
/// candidate values; candidates arrive in ascending row order per
/// binding, and chunk flushes run depth-first. Solutions therefore
/// arrive in the lexicographic order of their row choices, a
/// deterministic function of (body, seed, instance). The chase's trigger
/// collection, the EGD merge order, `Answers`' first-derived order and
/// every rendered AssessmentReport rest on it. The executor differential
/// (tests/executor_diff_test.cc) checks it solution by solution against
/// a backtracking reference evaluator that re-derives the greedy choice
/// at every node. The `EvalStats` counters match that reference, except
/// that the batch hash probe examines only the rows of its bound key's
/// chain, so `rows_tried` (and step charging) can be lower there.
class CqEvaluator {
 public:
  /// A non-null `budget` is polled once per enumeration and once per
  /// batch of candidate rows (probe "cq:row", clock reads amortized) so
  /// long joins honor deadlines, cancellation, and injected faults. A
  /// budget trip surfaces as the truncation status from `Enumerate` (or
  /// through the `interruption` out-params below).
  explicit CqEvaluator(const Instance& instance, EvalStats* stats = nullptr,
                       ExecutionBudget* budget = nullptr)
      : instance_(instance), stats_(stats), budget_(budget) {}

  /// Enumerates homomorphisms of `atoms ∧ ¬negated ∧ comparisons`
  /// extending `initial`; calls `on_match` with the full substitution for
  /// each. `on_match` returning false stops the enumeration early.
  /// `windows`, when non-empty, must parallel `atoms`. Negated atoms use
  /// closed-world absence from the instance and must be ground once all
  /// positive atoms are matched (safety).
  ///
  /// Precondition: every variable `initial` binds resolves to a ground
  /// term. The seeded callers bind a body match's frontier variables, or
  /// the mgu of a rule head against a ground atom.
  Status Enumerate(const std::vector<Atom>& atoms,
                   const std::vector<Atom>& negated,
                   const std::vector<Comparison>& comparisons,
                   const Subst& initial,
                   const std::vector<AtomLevelWindow>& windows,
                   const std::function<bool(const Subst&)>& on_match) const;

  /// Negation-free overload.
  Status Enumerate(const std::vector<Atom>& atoms,
                   const std::vector<Comparison>& comparisons,
                   const Subst& initial,
                   const std::vector<AtomLevelWindow>& windows,
                   const std::function<bool(const Subst&)>& on_match) const {
    return Enumerate(atoms, {}, comparisons, initial, windows, on_match);
  }

  /// True iff the body has at least one homomorphism extending `initial`.
  Result<bool> Satisfiable(const std::vector<Atom>& atoms,
                           const std::vector<Comparison>& comparisons,
                           const Subst& initial) const;

  /// Distinct answer tuples of an open CQ, in first-derived order. Tuples
  /// may contain labeled nulls; callers wanting certain answers filter
  /// them (see HasNull).
  ///
  /// With a non-null `interruption`, a budget trip returns the tuples
  /// found so far — a sound under-approximation — and stores the
  /// truncation status in `*interruption` (OK when complete). With a null
  /// `interruption`, a budget trip fails with that status: it is then the
  /// only way the caller can learn the answers are partial, and handing
  /// back the partial tuples silently would be unsound.
  Result<std::vector<std::vector<Term>>> Answers(
      const ConjunctiveQuery& query, Status* interruption = nullptr) const;

  /// Boolean CQ: is the canonical `yes` entailed? Same `interruption`
  /// contract as `Answers`; a truncated run that found no witness
  /// reports false (sound: "not provable within budget").
  Result<bool> AnswerBoolean(const ConjunctiveQuery& query,
                             Status* interruption = nullptr) const;

  static bool HasNull(const std::vector<Term>& tuple) {
    for (Term t : tuple) {
      if (t.IsNull()) return true;
    }
    return false;
  }

 private:
  const Instance& instance_;
  EvalStats* stats_;          // optional, not owned
  ExecutionBudget* budget_;   // optional, not owned
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_CQ_EVAL_H_
