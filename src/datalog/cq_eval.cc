#include "datalog/cq_eval.h"

#include <algorithm>

#include "datalog/join.h"

namespace mdqa::datalog {

namespace {

// Shared state of one enumeration, to keep the recursion signature small.
struct EvalState {
  // Rows between budget polls (power of two); keeps the enumeration hot
  // loop free of atomics while bounding cancellation latency.
  static constexpr uint32_t kBudgetBatch = 64;

  const Instance* instance;
  EvalStats* stats;          // may be null
  ExecutionBudget* budget;   // may be null
  uint32_t budget_tick = 0;
  const Vocabulary* vocab;
  const std::vector<Atom>* atoms;
  const std::vector<Atom>* negated;
  const std::vector<Comparison>* comparisons;
  const std::vector<AtomLevelWindow>* windows;  // may be null
  const std::function<bool(const Subst&)>* on_match;
  Subst subst;
  std::vector<uint32_t> trail;
  std::vector<bool> used;   // per atom
  bool stop = false;        // on_match requested early exit
  Status error;             // sticky first error
};

// Three-valued comparison check under the current (partial) substitution:
// returns false to prune; comparisons with an unbound side pass for now.
bool ComparisonsHold(const EvalState& s) {
  for (const Comparison& c : *s.comparisons) {
    Term lhs = Resolve(s.subst, c.lhs);
    Term rhs = Resolve(s.subst, c.rhs);
    if (!lhs.IsGround() || !rhs.IsGround()) continue;
    if (!EvalComparison(*s.vocab, c.op, lhs, rhs)) return false;
  }
  return true;
}

// Closed-world check of negated atoms under the current (partial)
// substitution: a fully ground negated atom present in the instance
// prunes; not-yet-ground ones pass for now.
bool NegationHolds(const EvalState& s) {
  for (const Atom& a : *s.negated) {
    Atom inst = SubstAtom(s.subst, a);
    if (inst.IsGround() && s.instance->Contains(inst)) return false;
  }
  return true;
}

// Number of ground positions of `atom` under the current substitution.
size_t BoundPositions(const EvalState& s, const Atom& atom) {
  size_t n = 0;
  for (Term t : atom.terms) {
    if (Resolve(s.subst, t).IsGround()) ++n;
  }
  return n;
}

// Picks the next unused atom: most bound positions, ties by smaller table.
int PickAtom(const EvalState& s) {
  int best = -1;
  size_t best_bound = 0;
  size_t best_size = 0;
  for (size_t i = 0; i < s.atoms->size(); ++i) {
    if (s.used[i]) continue;
    const Atom& atom = (*s.atoms)[i];
    size_t bound = BoundPositions(s, atom);
    const FactTable* table = s.instance->Table(atom.predicate);
    size_t size = table == nullptr ? 0 : table->size();
    if (best < 0 || bound > best_bound ||
        (bound == best_bound && size < best_size)) {
      best = static_cast<int>(i);
      best_bound = bound;
      best_size = size;
    }
  }
  return best;
}

void Recurse(EvalState* s, size_t remaining);

// Tries to match atom `idx` against `row` and recurse.
void TryRow(EvalState* s, size_t idx, const Term* row, size_t remaining) {
  if (s->stop || !s->error.ok()) return;
  // Budget polling is batched through a local tick so the per-row cost
  // is one increment-and-mask, not an atomic RMW: steps are charged in
  // blocks of kBudgetBatch rows and trips surface within a block.
  if (s->budget != nullptr &&
      (++s->budget_tick & (EvalState::kBudgetBatch - 1)) == 0) {
    Status bs = s->budget->Check("cq:row");
    if (bs.ok()) bs = s->budget->ChargeSteps(EvalState::kBudgetBatch);
    if (!bs.ok()) {
      s->error = std::move(bs);
      return;
    }
  }
  const Atom& atom = (*s->atoms)[idx];
  size_t mark = s->trail.size();
  if (s->stats != nullptr) ++s->stats->rows_tried;
  if (MatchAtom(atom, row, &s->subst, &s->trail) && ComparisonsHold(*s) &&
      NegationHolds(*s)) {
    if (s->stats != nullptr) ++s->stats->atoms_matched;
    s->used[idx] = true;
    Recurse(s, remaining - 1);
    s->used[idx] = false;
  }
  UndoTrail(&s->subst, &s->trail, mark);
}

void Recurse(EvalState* s, size_t remaining) {
  if (s->stop || !s->error.ok()) return;
  if (remaining == 0) {
    // All atoms matched; every comparison and negated atom must now be
    // decidable (ground).
    for (const Comparison& c : *s->comparisons) {
      Term lhs = Resolve(s->subst, c.lhs);
      Term rhs = Resolve(s->subst, c.rhs);
      if (!lhs.IsGround() || !rhs.IsGround()) {
        s->error = Status::InvalidArgument(
            "comparison variable not bound by any relational atom");
        return;
      }
    }
    for (const Atom& a : *s->negated) {
      if (!SubstAtom(s->subst, a).IsGround()) {
        s->error = Status::InvalidArgument(
            "negated-atom variable not bound by any positive atom");
        return;
      }
    }
    if (s->stats != nullptr) ++s->stats->solutions;
    if (!(*s->on_match)(s->subst)) s->stop = true;
    return;
  }
  int idx = PickAtom(*s);
  const Atom& atom = (*s->atoms)[idx];
  const FactTable* table = s->instance->Table(atom.predicate);
  if (table == nullptr) return;  // predicate empty: no matches

  AtomLevelWindow window;
  if (s->windows != nullptr) window = (*s->windows)[idx];
  auto level_ok = [&](uint32_t r) {
    uint32_t lvl = table->Level(r);
    return lvl >= window.min_level && lvl <= window.max_level;
  };

  // Probe the most selective index among ground positions, else scan.
  int probe_pos = -1;
  size_t probe_size = 0;
  Term probe_term;
  for (size_t p = 0; p < atom.terms.size(); ++p) {
    Term t = Resolve(s->subst, atom.terms[p]);
    if (!t.IsGround()) continue;
    const size_t count = table->ProbeCount(p, t);
    if (probe_pos < 0 || count < probe_size) {
      probe_pos = static_cast<int>(p);
      probe_size = count;
      probe_term = t;
    }
  }
  if (probe_pos >= 0) {
    if (s->stats != nullptr) ++s->stats->index_probes;
    // Evaluation is read-only, so holding the index's row list by
    // reference is safe; the chase only mutates between evaluations.
    // Columnar tables with a multi-segment chain materialize the gather.
    std::vector<uint32_t> scratch;
    const std::vector<uint32_t>* rows = table->ProbeRef(probe_pos, probe_term);
    if (rows == nullptr) {
      scratch = table->Probe(probe_pos, probe_term);
      rows = &scratch;
    }
    for (uint32_t r : *rows) {
      if (s->stop || !s->error.ok()) return;
      if (!level_ok(r)) continue;
      TryRow(s, idx, table->Row(r), remaining);
    }
  } else {
    if (s->stats != nullptr) ++s->stats->full_scans;
    for (uint32_t r = 0; r < table->size(); ++r) {
      if (s->stop || !s->error.ok()) return;
      if (!level_ok(r)) continue;
      TryRow(s, idx, table->Row(r), remaining);
    }
  }
}

}  // namespace

Status CqEvaluator::Enumerate(
    const std::vector<Atom>& atoms, const std::vector<Atom>& negated,
    const std::vector<Comparison>& comparisons, const Subst& initial,
    const std::vector<AtomLevelWindow>& windows,
    const std::function<bool(const Subst&)>& on_match) const {
  if (!windows.empty() && windows.size() != atoms.size()) {
    return Status::InvalidArgument("level-window count must match atom count");
  }
  if (initial.empty()) {
    // Vectorized block executor over the column segments. Its
    // enumeration order, stats and budget pacing reproduce the
    // backtracking path exactly (see datalog/join.h); the up-front
    // budget poll below still runs first. Dispatch is a pure cost
    // heuristic — both executors produce the same bytes — and only
    // whole-relation enumerations (empty initial bindings: the chase's
    // trigger collection, query answering) amortize the executor's
    // plan-compilation setup; seeded point lookups (the chase's head
    // check for existential heads, its search for a provenance witness)
    // stay on the low-setup backtracking path.
    // Existential-free heads never get here: the chase probes their
    // instantiated rows in the fact tables directly.
    if (budget_ != nullptr) {
      Status bs = budget_->Check("cq:row");
      if (!bs.ok()) return bs;
    }
    BlockJoin join(instance_, stats_, budget_);
    return join.Run(atoms, negated, comparisons, initial, windows, on_match);
  }
  EvalState s;
  s.instance = &instance_;
  s.stats = stats_;
  s.budget = budget_;
  s.vocab = instance_.vocab().get();
  s.atoms = &atoms;
  s.negated = &negated;
  s.comparisons = &comparisons;
  s.windows = windows.empty() ? nullptr : &windows;
  s.on_match = &on_match;
  s.subst = initial;
  s.used.assign(atoms.size(), false);
  // Poll once per enumeration: on instances smaller than the row-polling
  // batch the per-row tick never wraps, and cancellation/armed fault
  // probes would otherwise be invisible to short queries.
  if (s.budget != nullptr) {
    Status bs = s.budget->Check("cq:row");
    if (!bs.ok()) return bs;
  }
  if (!ComparisonsHold(s) || !NegationHolds(s)) return Status::Ok();
  Recurse(&s, atoms.size());
  return s.error;
}

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
