#include "qa/deterministic_ws.h"

#include <algorithm>

#include "datalog/unify.h"

namespace mdqa::qa {

using datalog::Atom;
using datalog::Comparison;
using datalog::ConjunctiveQuery;
using datalog::CqEvaluator;
using datalog::EvalComparison;
using datalog::FactTable;
using datalog::Instance;
using datalog::MatchAtom;
using datalog::Program;
using datalog::Resolve;
using datalog::Rule;
using datalog::SubstAtom;
using datalog::Term;
using datalog::UndoTrail;
using datalog::UnifyAtoms;

DeterministicWsQa::DeterministicWsQa(const Program& program,
                                     const WsQaOptions& options)
    : vocab_(program.vocab()),
      tgds_(program.Tgds()),
      work_(Instance::FromProgram(program)),
      options_(options) {}

uint32_t DeterministicWsQa::EffectiveDepth() const {
  if (options_.max_depth > 0) return options_.max_depth;
  return static_cast<uint32_t>(4 * tgds_.size() + 8);
}

Rule DeterministicWsQa::RenameApart(const Rule& rule) {
  Subst renaming;
  for (uint32_t v : rule.BodyVariables()) {
    renaming.emplace(v, vocab_->FreshVariable());
  }
  for (uint32_t v : rule.HeadVariables()) {
    renaming.emplace(v, vocab_->FreshVariable());
  }
  Rule out = rule;
  for (Atom& a : out.body) a = SubstAtom(renaming, a);
  for (Atom& a : out.head) a = SubstAtom(renaming, a);
  for (Comparison& c : out.comparisons) {
    c.lhs = Resolve(renaming, c.lhs);
    c.rhs = Resolve(renaming, c.rhs);
  }
  return out;
}

std::string DeterministicWsQa::CanonicalPattern(const Atom& atom) const {
  std::string key = std::to_string(atom.predicate);
  std::unordered_map<uint32_t, int> var_order;
  for (Term t : atom.terms) {
    key += '|';
    if (t.IsVariable()) {
      auto [it, _] = var_order.emplace(t.id(),
                                       static_cast<int>(var_order.size()));
      key += 'v' + std::to_string(it->second);
    } else {
      key += std::to_string(t.Key());
    }
  }
  return key;
}

Status DeterministicWsQa::Fire(const Rule& rule, const Subst& theta) {
  // Frontier bindings: body solutions ground every body variable.
  Subst h;
  for (uint32_t v : rule.FrontierVariables()) {
    h[v] = Resolve(theta, Term::Variable(v));
  }
  // Restricted chase: skip if the head already holds.
  CqEvaluator eval(work_);
  MDQA_ASSIGN_OR_RETURN(bool satisfied, eval.Satisfiable(rule.head, {}, h));
  if (satisfied) return Status::Ok();
  for (uint32_t z : rule.ExistentialVariables()) {
    MDQA_ASSIGN_OR_RETURN(h[z], vocab_->FreshNull());
  }
  ++stats_.rule_applications;
  std::vector<Atom> witness;
  if (options_.provenance != nullptr) {
    witness.reserve(rule.body.size());
    for (const Atom& b : rule.body) witness.push_back(SubstAtom(theta, b));
  }
  for (const Atom& head_atom : rule.head) {
    Atom fact = SubstAtom(h, head_atom);
    if (work_.AddFact(fact, /*level=*/1)) {
      ++stats_.facts_materialized;
      if (options_.budget != nullptr) {
        Status bs = options_.budget->ChargeFacts(1);
        if (!bs.ok()) {
          // Graceful: facts materialized so far are all genuinely
          // entailed; the search unwinds via budget_interrupt_.
          if (ExecutionBudget::IsTruncation(bs)) {
            if (budget_interrupt_.ok()) budget_interrupt_ = std::move(bs);
          } else {
            return bs;
          }
        }
      }
      if (options_.provenance != nullptr) {
        options_.provenance->Record(
            fact, datalog::ProvenanceStore::Derivation{rule, witness});
      }
    }
  }
  return Status::Ok();
}

Status DeterministicWsQa::ExpandGoal(const Atom& goal_inst, uint32_t depth) {
  if (depth == 0) return Status::Ok();
  const std::string key = CanonicalPattern(goal_inst);
  if (options_.use_memo) {
    auto it = memo_.find(key);
    if (it != memo_.end() && it->second.first >= depth &&
        it->second.second == work_.TotalFacts()) {
      return Status::Ok();  // already expanded, nothing new since
    }
  }

  for (const Rule& tgd : tgds_) {
    if (!budget_interrupt_.ok()) break;
    // Cheap pre-filter before renaming: some head atom must share the
    // goal's predicate.
    bool relevant = false;
    for (const Atom& h : tgd.head) {
      if (h.predicate == goal_inst.predicate) {
        relevant = true;
        break;
      }
    }
    if (!relevant) continue;

    Rule renamed = RenameApart(tgd);
    for (const Atom& head_atom : renamed.head) {
      if (head_atom.predicate != goal_inst.predicate) continue;
      std::optional<Subst> mgu = UnifyAtoms(goal_inst, head_atom);
      if (!mgu.has_value()) continue;
      // A ground goal term at an existential position can never equal the
      // fresh null this rule would invent — such resolutions are dead.
      bool dead = false;
      for (uint32_t z : renamed.ExistentialVariables()) {
        if (Resolve(*mgu, Term::Variable(z)).IsGround()) {
          dead = true;
          break;
        }
      }
      if (dead) continue;

      // Prove the (goal-instantiated) body; every proof fires the rule.
      Subst body_subst = *mgu;
      std::vector<uint32_t> trail;
      bool stop = false;
      Status fire_error = Status::Ok();
      MDQA_RETURN_IF_ERROR(SolveGoals(
          renamed.body, renamed.comparisons, 0, &body_subst, &trail,
          depth - 1,
          [&](const Subst& theta) {
            Status s = Fire(renamed, theta);
            if (!s.ok()) {
              fire_error = s;
              return false;
            }
            return true;  // keep enumerating body proofs
          },
          &stop));
      MDQA_RETURN_IF_ERROR(fire_error);
    }
  }
  // Don't memoize a truncated expansion — it would wrongly read as "fully
  // expanded" once the pattern recurs under a fresh budget.
  if (budget_interrupt_.ok()) memo_[key] = {depth, work_.TotalFacts()};
  return Status::Ok();
}

Status DeterministicWsQa::SolveGoals(
    const std::vector<Atom>& goals, const std::vector<Comparison>& comparisons,
    size_t idx, Subst* subst, std::vector<uint32_t>* trail, uint32_t depth,
    const std::function<bool(const Subst&)>& on_solution, bool* stop) {
  if (*stop) return Status::Ok();
  if (!budget_interrupt_.ok()) {
    // A budget trip unwinds the whole search cooperatively; solutions
    // already delivered stay valid.
    *stop = true;
    return Status::Ok();
  }
  if (options_.budget != nullptr) {
    Status bs = options_.budget->Check("ws:step");
    if (bs.ok()) bs = options_.budget->ChargeSteps(1);
    if (!bs.ok()) {
      if (!ExecutionBudget::IsTruncation(bs)) return bs;  // injected hard fault
      budget_interrupt_ = std::move(bs);
      *stop = true;
      return Status::Ok();
    }
  }
  ++stats_.resolution_steps;
  // Prune on any decided-false comparison.
  for (const Comparison& c : comparisons) {
    Term lhs = Resolve(*subst, c.lhs);
    Term rhs = Resolve(*subst, c.rhs);
    if (lhs.IsGround() && rhs.IsGround() &&
        !EvalComparison(*vocab_, c.op, lhs, rhs)) {
      return Status::Ok();
    }
  }
  if (idx == goals.size()) {
    if (!on_solution(*subst)) *stop = true;
    return Status::Ok();
  }

  const Atom& goal = goals[idx];
  Atom goal_inst = SubstAtom(*subst, goal);

  // Phase 1: let every TGD that could entail this goal materialize its
  // consequences (bounded by depth).
  MDQA_RETURN_IF_ERROR(ExpandGoal(goal_inst, depth));

  // Phase 2: match the goal against the working instance. Snapshot the
  // candidate rows — deeper recursion may materialize more facts.
  const FactTable* table = work_.Table(goal_inst.predicate);
  if (table == nullptr) return Status::Ok();
  std::vector<uint32_t> candidates;
  int probe_pos = -1;
  size_t probe_size = 0;
  Term probe_term;
  for (size_t p = 0; p < goal_inst.terms.size(); ++p) {
    Term t = goal_inst.terms[p];
    if (!t.IsGround()) continue;
    const size_t count = table->ProbeCount(p, t);
    if (probe_pos < 0 || count < probe_size) {
      probe_pos = static_cast<int>(p);
      probe_size = count;
      probe_term = t;
    }
  }
  if (probe_pos >= 0) {
    candidates = table->Probe(static_cast<size_t>(probe_pos), probe_term);
  } else {
    candidates.resize(table->size());
    for (uint32_t r = 0; r < table->size(); ++r) candidates[r] = r;
  }

  for (uint32_t r : candidates) {
    if (*stop) return Status::Ok();
    size_t mark = trail->size();
    // Re-fetch the table: materialization may have rehashed the map the
    // table lives in? No — tables are stable per predicate, but be safe
    // about row pointers: FactTable never moves rows, only appends.
    if (MatchAtom(goal, work_.Table(goal_inst.predicate)->Row(r), subst,
                  trail)) {
      MDQA_RETURN_IF_ERROR(SolveGoals(goals, comparisons, idx + 1, subst,
                                      trail, depth, on_solution, stop));
    }
    UndoTrail(subst, trail, mark);
  }
  return Status::Ok();
}

// Stratified negation needs fully evaluated lower strata; the lazy
// working instance is partial by design, so negation routes to ChaseQa.
static Status RejectNegation(const std::vector<Rule>& tgds,
                             const ConjunctiveQuery& query) {
  if (query.HasNegation()) {
    return Status::Unimplemented(
        "DeterministicWsQa does not support negated query atoms; use the "
        "chase engine");
  }
  for (const Rule& r : tgds) {
    if (r.HasNegation()) {
      return Status::Unimplemented(
          "DeterministicWsQa does not support rules with negation; use "
          "the chase engine");
    }
  }
  return Status::Ok();
}

Result<std::vector<std::vector<Term>>> DeterministicWsQa::Enumerate(
    const ConjunctiveQuery& query, bool certain_only) {
  MDQA_RETURN_IF_ERROR(query.Validate());
  MDQA_RETURN_IF_ERROR(RejectNegation(tgds_, query));
  budget_interrupt_ = Status::Ok();
  stats_.completeness = Completeness::kComplete;
  stats_.interruption = Status::Ok();
  const uint32_t depth = EffectiveDepth();
  std::vector<std::vector<Term>> out;
  // Passes until the working instance stabilizes (candidate snapshots can
  // miss facts materialized after a goal was matched; monotone passes
  // converge to the complete answer set for the depth bound).
  while (true) {
    ++stats_.passes;
    size_t size_before = work_.TotalFacts();
    out.clear();
    Subst subst;
    std::vector<uint32_t> trail;
    bool stop = false;
    MDQA_RETURN_IF_ERROR(SolveGoals(
        query.body, query.comparisons, 0, &subst, &trail, depth,
        [&](const Subst& s) {
          std::vector<Term> tuple;
          tuple.reserve(query.answer.size());
          for (Term t : query.answer) tuple.push_back(Resolve(s, t));
          if (!certain_only || !CqEvaluator::HasNull(tuple)) {
            if (std::find(out.begin(), out.end(), tuple) == out.end()) {
              out.push_back(std::move(tuple));
            }
          }
          return true;
        },
        &stop));
    if (!budget_interrupt_.ok()) {
      // Every tuple in `out` is backed by a completed proof, so the
      // partial set is a sound under-approximation.
      stats_.completeness = Completeness::kTruncated;
      stats_.interruption = budget_interrupt_;
      break;
    }
    if (work_.TotalFacts() == size_before) break;
  }
  return out;
}

Result<bool> DeterministicWsQa::AnswerBoolean(const ConjunctiveQuery& query) {
  MDQA_RETURN_IF_ERROR(query.Validate());
  MDQA_RETURN_IF_ERROR(RejectNegation(tgds_, query));
  budget_interrupt_ = Status::Ok();
  stats_.completeness = Completeness::kComplete;
  stats_.interruption = Status::Ok();
  const uint32_t depth = EffectiveDepth();
  while (true) {
    ++stats_.passes;
    size_t size_before = work_.TotalFacts();
    Subst subst;
    std::vector<uint32_t> trail;
    bool stop = false;
    bool found = false;
    MDQA_RETURN_IF_ERROR(SolveGoals(query.body, query.comparisons, 0, &subst,
                                    &trail, depth,
                                    [&found](const Subst&) {
                                      found = true;
                                      return false;  // accept: stop search
                                    },
                                    &stop));
    if (found) return true;
    if (!budget_interrupt_.ok()) {
      // No proof found within budget: report "not entailed" as a sound
      // under-approximation and flag the truncation.
      stats_.completeness = Completeness::kTruncated;
      stats_.interruption = budget_interrupt_;
      return false;
    }
    if (work_.TotalFacts() == size_before) return false;
  }
}

Result<std::vector<std::vector<Term>>> DeterministicWsQa::Answers(
    const ConjunctiveQuery& query) {
  return Enumerate(query, /*certain_only=*/true);
}

Result<std::vector<std::vector<Term>>> DeterministicWsQa::PossibleAnswers(
    const ConjunctiveQuery& query) {
  return Enumerate(query, /*certain_only=*/false);
}

}  // namespace mdqa::qa
