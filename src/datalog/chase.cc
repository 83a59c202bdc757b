#include "datalog/chase.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_set>

#include "datalog/analysis.h"
#include "datalog/provenance.h"

namespace mdqa::datalog {

namespace {

// The triggers of one rule pass: each body match projected onto the
// rule's frontier (the body variables that also occur in the head), as
// rows of `width` terms in one contiguous buffer. Rows are appended in
// discovery order; SortUnique puts them in canonical order. It also runs
// whenever the row count reaches twice what the last call kept (and at
// least kMinCompact), so a projecting rule (`Reach(X) :- Edge(X, Y).`,
// one match per edge but one trigger per node) holds memory proportional
// to its distinct triggers.
class TriggerRows {
 public:
  explicit TriggerRows(size_t width) : width_(width) {}

  size_t size() const { return rows_; }
  const Term* Row(size_t i) const { return terms_.data() + i * width_; }

  void Append(const Subst& subst, const std::vector<uint32_t>& frontier) {
    for (uint32_t v : frontier) {
      terms_.push_back(Resolve(subst, Term::Variable(v)));
    }
    if (++rows_ >= compact_at_) {
      SortUnique();
      compact_at_ = std::max(kMinCompact, 2 * rows_);
    }
  }

  // Sorts the rows lexicographically (Term::operator< is total) and drops
  // duplicates; width-0 rows are all equal, so at most one survives.
  void SortUnique() {
    std::vector<uint32_t> order(rows_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(Row(a), Row(a) + width_, Row(b),
                                          Row(b) + width_);
    });
    std::vector<Term> sorted;
    sorted.reserve(terms_.size());
    size_t kept = 0;
    for (size_t k = 0; k < order.size(); ++k) {
      const Term* row = Row(order[k]);
      if (k > 0 && std::equal(row, row + width_, Row(order[k - 1]))) continue;
      sorted.insert(sorted.end(), row, row + width_);
      ++kept;
    }
    terms_.swap(sorted);
    rows_ = kept;
  }

 private:
  static constexpr size_t kMinCompact = size_t{1} << 16;

  size_t width_;
  size_t rows_ = 0;
  size_t compact_at_ = kMinCompact;
  std::vector<Term> terms_;
};

// A TGD compiled once per chase call for the apply loop. A trigger's
// binding row holds its frontier bindings, then one fresh null per
// existential variable; `head` is the rule's head terms flattened over
// its atoms, each variable renumbered to its binding-row index, so
// instantiating the head is one pass over `head`.
struct RulePlan {
  explicit RulePlan(const Rule* r) : rule(r) {}

  // Idempotent: Extend compiles only the rules its delta reaches.
  void Compile() {
    if (compiled) return;
    compiled = true;
    frontier = rule->FrontierVariables();
    existential = rule->ExistentialVariables();
    for (const Atom& a : rule->head) {
      for (Term t : a.terms) {
        if (t.IsVariable()) {
          auto f = std::find(frontier.begin(), frontier.end(), t.id());
          auto e = std::find(existential.begin(), existential.end(), t.id());
          t = Term::Variable(static_cast<uint32_t>(
              f != frontier.end()
                  ? f - frontier.begin()
                  : frontier.size() + (e - existential.begin())));
        }
        head.push_back(t);
      }
    }
  }

  void Instantiate(const std::vector<Term>& binding,
                   std::vector<Term>* out) const {
    for (size_t i = 0; i < head.size(); ++i) {
      (*out)[i] = head[i].IsVariable() ? binding[head[i].id()] : head[i];
    }
  }

  // The trigger's frontier bindings as an evaluator seed.
  Subst Seed(const std::vector<Term>& binding) const {
    Subst s;
    for (size_t i = 0; i < frontier.size(); ++i) s[frontier[i]] = binding[i];
    return s;
  }

  const Rule* rule;
  bool compiled = false;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> existential;
  std::vector<Term> head;
  // Semi-oblivious mode: frontier bindings that already fired, across
  // rounds (full passes would otherwise refire them forever).
  std::set<std::vector<Term>> fired;
};

// Union-find over terms for EGD application. Constants are always roots;
// merging two constants is the caller's inconsistency case.
class TermUnionFind {
 public:
  Term Find(Term t) {
    auto it = parent_.find(t.Key());
    if (it == parent_.end()) return t;
    Term root = Find(it->second);
    it->second = root;  // path compression
    return root;
  }

  // Pre: at least one of a, b is a labeled null (after Find).
  void Union(Term a, Term b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (a.IsNull()) {
      parent_[a.Key()] = b;
    } else {
      parent_[b.Key()] = a;
    }
  }

  bool empty() const { return parent_.empty(); }

 private:
  std::unordered_map<uint64_t, Term> parent_;
};

// Rewrites the whole instance through `uf`, keeping the minimum level of
// merged duplicates. Only called when at least one merge happened.
Instance Canonicalize(const Instance& in, TermUnionFind* uf) {
  Instance out(in.vocab());
  for (uint32_t pred : in.Predicates()) {
    const FactTable* table = in.Table(pred);
    const size_t arity = table->arity();
    std::vector<Term> row(arity);
    for (uint32_t i = 0; i < table->size(); ++i) {
      const Term* src = table->Row(i);
      for (size_t j = 0; j < arity; ++j) row[j] = uf->Find(src[j]);
      out.MutableTable(pred, arity)->Insert(row.data(), table->Level(i));
    }
  }
  // The rebuilt instance replaces `in` at the call sites; keep the
  // generation monotone so a frontier captured against `in` can never
  // collide with a later capture against the rebuilt object.
  out.EnsureGenerationAbove(in.generation());
  return out;
}

std::string WitnessString(const Vocabulary& vocab, const Rule& rule,
                          const Subst& subst) {
  std::string out = "rule [" + vocab.RuleToString(rule) + "] with ";
  bool first = true;
  for (const Atom& a : rule.body) {
    out += (first ? "" : ", ");
    out += vocab.AtomToString(SubstAtom(subst, a));
    first = false;
  }
  return out;
}

}  // namespace

const char* ChaseStopToString(ChaseStop stop) {
  switch (stop) {
    case ChaseStop::kNone:
      return "none";
    case ChaseStop::kRoundLimit:
      return "round-limit";
    case ChaseStop::kFactLimit:
      return "fact-limit";
    case ChaseStop::kBudget:
      return "budget";
    case ChaseStop::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string ChaseFrontier::ToString() const {
  if (!valid) return "frontier: invalid";
  return "frontier: round=" + std::to_string(round) +
         " nulls=" + std::to_string(null_watermark) +
         " egd_merges=" + std::to_string(egd_merges) +
         " generation=" + std::to_string(generation) +
         " predicates=" + std::to_string(watermarks.size());
}

std::string ChaseStats::ToString() const {
  std::string out = "rounds=" + std::to_string(rounds) +
                    " firings=" + std::to_string(tgd_firings) +
                    " facts_added=" + std::to_string(facts_added) +
                    " nulls=" + std::to_string(nulls_created) +
                    " egd_merges=" + std::to_string(egd_merges);
  if (completeness == Completeness::kComplete) {
    out += reached_fixpoint ? " (fixpoint, complete)" : " (complete)";
  } else {
    out += " (truncated: ";
    out += ChaseStopToString(stop);
    out += ")";
  }
  if (incremental) {
    out += extend_fallback
               ? " [incremental: full re-chase fallback — " + fallback_reason +
                     "]"
               : " [incremental]";
  }
  return out;
}

namespace {

// Records the resume state of a completed run into `stats->frontier` and
// freezes the instance's segments — the capture point for Chase::Extend.
void CaptureFrontier(Instance* instance, ChaseStats* stats) {
  ChaseFrontier& f = stats->frontier;
  f.valid = true;
  f.round = stats->rounds;
  f.null_watermark = instance->vocab()->NumNulls();
  f.egd_merges = stats->egd_merges;
  f.generation = instance->generation();
  f.watermarks.clear();
  for (uint32_t pred : instance->Predicates()) {
    f.watermarks[pred] = static_cast<uint32_t>(instance->CountFacts(pred));
  }
  instance->Freeze();
}

// True when every row of the instantiated head `head` is already a fact.
bool HeadPresent(const Instance& instance, const Rule& rule,
                 const std::vector<Term>& head) {
  const Term* row = head.data();
  for (const Atom& a : rule.head) {
    const FactTable* table = instance.Table(a.predicate);
    if (table == nullptr || !table->Contains(row)) return false;
    row += a.arity();
  }
  return true;
}

// The state one Run or Extend call threads through its rounds: the
// options and budget, the first graceful interruption, and the stats it
// fills. `Round` is the collect → sort → apply step both entry points
// share.
class ChaseLoop {
 public:
  ChaseLoop(const ChaseOptions& options, Instance* instance,
            ChaseStats* stats)
      : options_(options),
        budget_(options.budget),
        instance_(instance),
        stats_(stats) {}

  // True once a truncation was recorded: stop gracefully, the instance
  // is a sound partial result. Hard faults return immediately instead.
  bool interrupted() const { return !interrupt_.ok(); }

  // Records the first interruption; later ones are ignored.
  void Interrupt(Status s, ChaseStop reason) {
    if (interrupt_.ok()) {
      interrupt_ = std::move(s);
      stats_->stop = reason;
    }
  }

  // Routes a budget trip into the interruption; returns non-OK only for
  // hard (non-truncation) faults, e.g. an injected kInternal.
  Status Absorb(Status s) {
    if (s.ok() || interrupted()) return Status::Ok();
    if (!ExecutionBudget::IsTruncation(s)) return s;
    const ChaseStop reason = s.code() == StatusCode::kCancelled
                                 ? ChaseStop::kCancelled
                                 : ChaseStop::kBudget;
    Interrupt(std::move(s), reason);
    return Status::Ok();
  }

  Status StartRound() {
    if (budget_ == nullptr) return Status::Ok();
    Status bs = budget_->CheckNow("chase:round");
    if (bs.ok()) bs = budget_->ChargeRounds(1);
    return Absorb(std::move(bs));
  }

  // Estimating memory walks the whole instance, so only pay for it when
  // a limit was actually configured.
  Status NoteMemory() {
    if (budget_ == nullptr || !budget_->has_memory_limit()) {
      return Status::Ok();
    }
    return Absorb(budget_->NoteMemory(instance_->MemoryEstimateBytes()));
  }

  // Applies the EGDs to fixpoint; `*merges` stays 0 unless that completes.
  Status RunEgds(const Program& program, uint64_t* merges) {
    *merges = 0;
    Result<uint64_t> done = Chase::ApplyEgds(program, instance_, budget_);
    if (!done.ok()) return Absorb(done.status());
    *merges = *done;
    stats_->egd_merges += *done;
    return Status::Ok();
  }

  // One round's TGD passes at `level`: for each rule in order, collect
  // its triggers, sort them, and apply them. With `gained_prev` set (the
  // predicates that gained a fact at level - 1), semi-naive passes skip
  // the rules and delta atoms it rules out; `gained`, when set, collects
  // the predicates that gain a fact.
  Status Round(const std::vector<RulePlan*>& plans, uint32_t level,
               bool full_pass,
               const std::unordered_set<uint32_t>* gained_prev,
               std::unordered_set<uint32_t>* gained);

  // Fills the completion fields of the stats. A run that reached its
  // fixpoint holds the full chase result, so it records the resume state
  // Extend needs.
  void Finish(uint64_t rounds, bool round_limit,
              const std::string& limit_message) {
    stats_->rounds = rounds;
    stats_->reached_fixpoint = !interrupted() && !round_limit;
    if (interrupted()) {
      stats_->completeness = Completeness::kTruncated;
      stats_->interruption = interrupt_;
    } else if (round_limit) {
      stats_->completeness = Completeness::kTruncated;
      stats_->stop = ChaseStop::kRoundLimit;
      stats_->interruption = Status::ResourceExhausted(limit_message);
    } else {
      CaptureFrontier(instance_, stats_);
    }
  }

 private:
  Status Apply(RulePlan* plan, const TriggerRows& triggers, uint32_t level,
               std::unordered_set<uint32_t>* gained);

  const ChaseOptions& options_;
  ExecutionBudget* budget_;
  Instance* instance_;
  ChaseStats* stats_;
  Status interrupt_ = Status::Ok();
};

Status ChaseLoop::Round(const std::vector<RulePlan*>& plans, uint32_t level,
                        bool full_pass,
                        const std::unordered_set<uint32_t>* gained_prev,
                        std::unordered_set<uint32_t>* gained) {
  auto touched = [gained_prev](const Atom& a) {
    return gained_prev == nullptr || gained_prev->count(a.predicate) > 0;
  };
  for (RulePlan* plan : plans) {
    if (interrupted()) break;
    const Rule& rule = *plan->rule;
    // Delta-driven skip: no body predicate gained a fact at the previous
    // level, so every delta window below is empty.
    if (!full_pass && std::none_of(rule.body.begin(), rule.body.end(),
                                   touched)) {
      continue;
    }
    plan->Compile();
    CqEvaluator eval(*instance_, nullptr, budget_);
    // Collect every trigger first: enumeration must not observe the
    // facts this pass derives.
    TriggerRows triggers(plan->frontier.size());
    auto collect = [plan, &triggers](const Subst& subst) {
      triggers.Append(subst, plan->frontier);
      return true;
    };
    if (full_pass) {
      MDQA_RETURN_IF_ERROR(Absorb(eval.Enumerate(
          rule.body, rule.negated, rule.comparisons, Subst{}, {}, collect)));
    } else {
      // Semi-naive: one pass per delta atom d — atom d restricted to the
      // previous round's facts, atoms before d to strictly older ones.
      const uint32_t prev = level - 1;
      for (size_t d = 0; d < rule.body.size() && !interrupted(); ++d) {
        if (!touched(rule.body[d])) continue;  // its window is empty
        std::vector<AtomLevelWindow> windows(rule.body.size());
        for (size_t j = 0; j < rule.body.size(); ++j) {
          if (j < d) {
            windows[j].max_level = prev > 0 ? prev - 1 : 0;
            if (prev == 0) windows[j].min_level = 1;  // empty window
          } else if (j == d) {
            windows[j].min_level = prev;
            windows[j].max_level = prev;
          }  // j > d: unrestricted (everything known so far)
        }
        MDQA_RETURN_IF_ERROR(Absorb(eval.Enumerate(rule.body, rule.negated,
                                                   rule.comparisons, Subst{},
                                                   windows, collect)));
      }
    }
    if (interrupted()) break;

    // Canonical apply order: sorted on frontier bindings. This makes the
    // firing order — and with it null numbering, restricted-chase skips,
    // and the final instance — a function of the trigger *set* alone,
    // independent of the order the passes enumerate it in.
    triggers.SortUnique();
    MDQA_RETURN_IF_ERROR(Apply(plan, triggers, level, gained));
  }
  return Status::Ok();
}

Status ChaseLoop::Apply(RulePlan* plan, const TriggerRows& triggers,
                        uint32_t level,
                        std::unordered_set<uint32_t>* gained) {
  const Rule& rule = *plan->rule;
  const size_t width = plan->frontier.size();
  // Restricted chase: a trigger fires only when its head is not already
  // satisfied (facts fired earlier this round count, so equivalent
  // triggers cost one null tuple, not many). An existential-free head is
  // satisfied iff its instantiated rows are facts — one dedup-index
  // probe per head atom through the read-only Table, so a satisfied
  // trigger never bumps the generation or clones a table a snapshot
  // shares. Existential heads take the seeded evaluator instead.
  const bool probe = options_.restricted && plan->existential.empty();
  std::vector<Term> binding(width + plan->existential.size());
  std::vector<Term> head(plan->head.size());
  // Only this loop adds facts while it runs, so a running count serves
  // the max_facts check.
  size_t total_facts = instance_->TotalFacts();
  // The budget is polled once per 16 triggers through a local tick (the
  // first trigger always polls, so armed faults and expired deadlines
  // still surface deterministically); ChargeFacts below stays per-fact
  // so fact caps trip exactly.
  uint32_t tick = 0;
  for (size_t t = 0; t < triggers.size(); ++t) {
    if (budget_ != nullptr && (tick++ & 15u) == 0) {
      MDQA_RETURN_IF_ERROR(Absorb(budget_->Check("chase:trigger")));
    }
    if (interrupted()) break;
    std::copy_n(triggers.Row(t), width, binding.begin());
    if (probe) {
      // Polled like the head evaluation it replaces; it scans no rows,
      // so it charges no steps.
      Status bs =
          budget_ != nullptr ? budget_->Check("cq:row") : Status::Ok();
      if (!bs.ok()) {
        MDQA_RETURN_IF_ERROR(Absorb(std::move(bs)));
        break;
      }
      plan->Instantiate(binding, &head);
      if (HeadPresent(*instance_, rule, head)) continue;
    } else if (options_.restricted) {
      Result<bool> satisfied = CqEvaluator(*instance_, nullptr, budget_)
                                   .Satisfiable(rule.head, {},
                                                plan->Seed(binding));
      if (!satisfied.ok()) {
        MDQA_RETURN_IF_ERROR(Absorb(satisfied.status()));
        break;
      }
      if (*satisfied) continue;
    } else if (!plan->fired.emplace(binding.begin(),
                                    binding.begin() + width).second) {
      continue;  // semi-oblivious: this frontier already fired
    }

    // Ground body witness for provenance, found against the pre-firing
    // instance (opt-in: one extra evaluation per firing).
    std::vector<Atom> witness;
    if (options_.provenance != nullptr) {
      Status ws = CqEvaluator(*instance_, nullptr, budget_).Enumerate(
          rule.body, rule.negated, rule.comparisons, plan->Seed(binding), {},
          [&](const Subst& theta) {
            witness.reserve(rule.body.size());
            for (const Atom& b : rule.body) {
              witness.push_back(SubstAtom(theta, b));
            }
            return false;  // first witness suffices
          });
      if (!ws.ok()) {
        MDQA_RETURN_IF_ERROR(Absorb(std::move(ws)));
        break;
      }
    }

    for (size_t k = width; k < binding.size(); ++k) {
      binding[k] = instance_->vocab()->FreshNull();
      ++stats_->nulls_created;
    }
    ++stats_->tgd_firings;
    plan->Instantiate(binding, &head);
    const Term* row = head.data();
    for (const Atom& a : rule.head) {
      if (instance_->MutableTable(a.predicate, a.arity())->Insert(row,
                                                                  level)) {
        ++stats_->facts_added;
        ++total_facts;
        if (gained != nullptr) gained->insert(a.predicate);
        if (budget_ != nullptr) {
          MDQA_RETURN_IF_ERROR(Absorb(budget_->ChargeFacts(1)));
        }
        if (options_.provenance != nullptr) {
          options_.provenance->Record(
              Atom(a.predicate, std::vector<Term>(row, row + a.arity())),
              ProvenanceStore::Derivation{rule, witness});
        }
      }
      row += a.arity();
    }
    if (total_facts > options_.max_facts) {
      Interrupt(Status::ResourceExhausted(
                    "chase exceeded max_facts=" +
                    std::to_string(options_.max_facts) + " at round " +
                    std::to_string(level)),
                ChaseStop::kFactLimit);
      break;
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ChaseStats> Chase::Run(const Program& program, Instance* instance,
                              const ChaseOptions& options) {
  ChaseStats stats;
  MDQA_RETURN_IF_ERROR(Run(program, instance, options, &stats));
  // The legacy contract: blowing max_facts is a hard error (the new
  // out-param overload reports it as truncation metadata instead).
  if (stats.stop == ChaseStop::kFactLimit) return stats.interruption;
  return stats;
}

Status Chase::Run(const Program& program, Instance* instance,
                  const ChaseOptions& options, ChaseStats* stats) {
  *stats = ChaseStats{};
  const std::vector<Rule> tgds = program.Tgds();
  for (const Rule& r : tgds) {
    MDQA_RETURN_IF_ERROR(r.Validate());
  }
  std::vector<RulePlan> plans;
  for (const Rule& r : tgds) plans.emplace_back(&r);

  // Stratified negation: group rules by the stratum of their head
  // predicates and run strata to fixpoint in order — a rule only negates
  // predicates from strictly lower (already fixed) strata, keeping the
  // evaluation monotone within each stratum. Negation-free programs get
  // a single stratum and behave exactly as before.
  std::unordered_map<uint32_t, int> strata_of;
  MDQA_ASSIGN_OR_RETURN(strata_of, StratifyProgram(program));
  std::vector<std::vector<RulePlan*>> by_stratum(1);
  for (RulePlan& plan : plans) {
    size_t stratum = 0;
    for (const Atom& h : plan.rule->head) {
      auto it = strata_of.find(h.predicate);
      if (it != strata_of.end()) {
        stratum = std::max(stratum, static_cast<size_t>(it->second));
      }
    }
    if (stratum >= by_stratum.size()) by_stratum.resize(stratum + 1);
    by_stratum[stratum].push_back(&plan);
  }

  ChaseLoop loop(options, instance, stats);
  uint64_t merges = 0;
  if (options.egd_mode == EgdMode::kInterleaved) {
    MDQA_RETURN_IF_ERROR(loop.RunEgds(program, &merges));
  }

  // EGD merges rewrite existing facts in place (keeping their old levels),
  // which delta windows would miss; the round after a merge runs naive.
  bool force_full = false;
  uint64_t round = 0;  // global across strata: levels stay monotone
  bool budget_exhausted = false;

  for (const std::vector<RulePlan*>& stratum_rules : by_stratum) {
    if (budget_exhausted || loop.interrupted()) break;
    bool stratum_start = true;
    while (true) {
      if (++round > options.max_rounds) {
        --round;
        budget_exhausted = true;
        break;
      }
      MDQA_RETURN_IF_ERROR(loop.StartRound());
      if (loop.interrupted()) break;
      const bool full_pass =
          stratum_start || !options.semi_naive || force_full;
      stratum_start = false;
      force_full = false;
      const uint64_t added_before = stats->facts_added;
      MDQA_RETURN_IF_ERROR(loop.Round(stratum_rules,
                                      static_cast<uint32_t>(round),
                                      full_pass, nullptr, nullptr));
      if (loop.interrupted()) break;
      bool changed = stats->facts_added > added_before;

      if (options.egd_mode == EgdMode::kInterleaved) {
        MDQA_RETURN_IF_ERROR(loop.RunEgds(program, &merges));
        if (loop.interrupted()) break;
        if (merges > 0) {
          changed = true;
          force_full = true;
        }
      }
      MDQA_RETURN_IF_ERROR(loop.NoteMemory());
      if (loop.interrupted()) break;
      stats->rounds = round;
      if (!changed) break;  // this stratum reached its fixpoint
    }
  }

  stats->rounds = round;
  stats->reached_fixpoint = !budget_exhausted && !loop.interrupted();

  // Post-phase EGDs and the constraint check still run on the legacy
  // round-limit path (unchanged behaviour) but not after a budget trip:
  // the caller asked us to stop working.
  if (!loop.interrupted() && options.egd_mode == EgdMode::kPost) {
    MDQA_RETURN_IF_ERROR(loop.RunEgds(program, &merges));
  }
  if (!loop.interrupted() && options.check_constraints) {
    MDQA_RETURN_IF_ERROR(
        loop.Absorb(CheckConstraints(program, *instance, options.budget)));
  }
  loop.Finish(round, budget_exhausted,
              "chase stopped at max_rounds=" +
                  std::to_string(options.max_rounds));
  return Status::Ok();
}

Status Chase::Extend(const Program& program, Instance* instance,
                     const ChaseFrontier& frontier,
                     const std::vector<Atom>& delta_facts,
                     const ChaseOptions& options, ChaseStats* stats) {
  *stats = ChaseStats{};
  stats->incremental = true;
  if (!frontier.valid) {
    return Status::FailedPrecondition(
        "chase frontier is invalid (was the previous run truncated?)");
  }
  if (frontier.generation != instance->generation()) {
    return Status::FailedPrecondition(
        "stale chase frontier: instance generation is " +
        std::to_string(instance->generation()) + " but the frontier was "
        "captured at " + std::to_string(frontier.generation));
  }
  for (const Atom& f : delta_facts) {
    if (!f.IsGround()) {
      return Status::InvalidArgument("delta facts must be ground");
    }
  }

  const std::vector<Rule> egds = program.Egds();
  const bool has_egds = options.egd_mode != EgdMode::kOff && !egds.empty();
  // Conservative fallback matrix (docs/incremental.md): program features
  // that break the soundness of a delta-seeded restart force an exact
  // full re-chase of program+delta instead — recorded, never silent.
  // Negation and the semi-oblivious chase are unconditional; EGDs and
  // form-(10) rules are narrowed by the position-dependency analysis —
  // they fall back only when the delta can actually reach them.
  std::string fallback;
  std::vector<const Rule*> form10_rules;
  for (const Rule& r : program.rules()) {
    if (!r.IsTgd()) continue;
    if (!r.negated.empty()) {
      fallback = "stratified negation (insertion is non-monotone)";
      break;
    }
    if (r.head.size() > 1 && !r.ExistentialVariables().empty()) {
      form10_rules.push_back(&r);
    }
  }
  if (fallback.empty() && !options.restricted) {
    // The semi-oblivious fired-trigger set is not part of the frontier,
    // so an extension cannot tell which frontier bindings already fired.
    fallback = "semi-oblivious chase (fired-trigger state not resumable)";
  }
  if (fallback.empty() && (has_egds || !form10_rules.empty())) {
    std::optional<ProgramAnalysis> local_analysis;
    const ProgramAnalysis* pa = options.analysis;
    if (pa == nullptr) {
      local_analysis.emplace(program);
      pa = &*local_analysis;
    }
    std::unordered_set<uint32_t> delta_preds;
    for (const Atom& f : delta_facts) delta_preds.insert(f.predicate);
    const std::unordered_set<uint32_t> dirty_closure =
        DependentPredicates(program, delta_preds);
    // An EGD matters only if the delta can feed its body AND it can
    // equate labeled nulls (a null-free EGD only no-ops or reports a
    // constant clash — both of which the alternation below reproduces).
    bool merges_possible = false;
    if (has_egds) {
      for (const Rule& egd : egds) {
        bool reachable = false;
        for (const Atom& b : egd.body) {
          if (dirty_closure.count(b.predicate) > 0) {
            reachable = true;
            break;
          }
        }
        if (reachable && !pa->EgdIsNullFree(egd)) {
          merges_possible = true;
          break;
        }
      }
    }
    if (!options.egds_separable && merges_possible) {
      fallback =
          "EGDs not declared separable, and the delta reaches an EGD "
          "that can merge labeled nulls";
    }
    if (fallback.empty() && !form10_rules.empty()) {
      // A form-(10) rule breaks delta soundness only when it can fire on
      // something new: its body must depend on the delta predicates — or,
      // when an EGD null merge is possible, on any predicate whose facts
      // such a merge can rewrite in place.
      std::unordered_set<uint32_t> seeds = delta_preds;
      if (merges_possible) {
        for (uint32_t p : pa->AffectedPredicates()) seeds.insert(p);
      }
      const std::unordered_set<uint32_t> feeds =
          DependentPredicates(program, seeds);
      for (const Rule* r : form10_rules) {
        bool fed = false;
        for (const Atom& b : r->body) {
          if (feeds.count(b.predicate) > 0) {
            fed = true;
            break;
          }
        }
        if (fed) {
          fallback =
              "form-(10)-shaped rule (multi-atom head with existentials) "
              "reachable from the delta";
          break;
        }
      }
    }
  }
  if (!fallback.empty()) {
    ChaseStats inner;
    Instance rebuilt = Instance::FromProgram(program);
    for (const Atom& f : delta_facts) rebuilt.AddFact(f, /*level=*/0);
    MDQA_RETURN_IF_ERROR(Run(program, &rebuilt, options, &inner));
    inner.incremental = true;
    inner.extend_fallback = true;
    inner.fallback_reason = std::move(fallback);
    *stats = std::move(inner);
    *instance = std::move(rebuilt);
    return Status::Ok();
  }

  ChaseLoop loop(options, instance, stats);
  // No deep copy of the rule set here (unlike Run): every rule was
  // already validated by Program::AddRule, and an extension is supposed
  // to be cheap relative to the program size. Rules are compiled lazily,
  // only when the delta actually reaches them.
  std::vector<RulePlan> plans;
  for (const Rule& r : program.rules()) {
    if (r.IsTgd()) plans.emplace_back(&r);
  }
  std::vector<RulePlan*> rules;
  for (RulePlan& plan : plans) rules.push_back(&plan);

  // Seed the delta one level above the frontier: the first delta pass's
  // windows (pinned to `seed_level`) then select exactly these facts.
  // Derivation levels therefore keep growing monotonically across
  // extensions — "level 0 == extensional" holds only for the original
  // base facts, which nothing renders and only the windows consume.
  // Predicate-level dirtiness, the delta-driven pruning that makes small
  // extensions cheap: `added_prev` holds the predicates that gained a
  // fact at the previous level (a rule whose body misses all of them
  // cannot fire in a semi-naive pass — every pivot window is empty), and
  // `dirty_since_egd` accumulates every touched predicate so the EGD
  // fixpoint re-runs only when an EGD body could actually see new facts.
  std::unordered_set<uint32_t> added_prev;
  std::unordered_set<uint32_t> dirty_since_egd;
  // Every predicate that gained a fact over the whole extension, for the
  // final constraint check: a constraint that held at frontier capture
  // can only fire again through one of these.
  std::unordered_set<uint32_t> dirty_total;

  const uint32_t seed_level = static_cast<uint32_t>(frontier.round) + 1;
  for (const Atom& f : delta_facts) {
    if (instance->AddFact(f, seed_level)) {
      ++stats->facts_added;
      added_prev.insert(f.predicate);
      if (options.budget != nullptr) {
        MDQA_RETURN_IF_ERROR(loop.Absorb(options.budget->ChargeFacts(1)));
      }
    }
  }
  dirty_since_egd = dirty_total = added_prev;

  uint64_t round = seed_level;  // the seed insertion consumed this round
  bool force_full = false;
  bool budget_exhausted = false;

  while (!loop.interrupted() && !budget_exhausted) {  // TGD/EGD alternation
    while (true) {  // TGD rounds to fixpoint
      if (++round - frontier.round > options.max_rounds) {
        --round;
        budget_exhausted = true;
        break;
      }
      MDQA_RETURN_IF_ERROR(loop.StartRound());
      if (loop.interrupted()) break;
      // Semi-naive restart: identical windows to Run's delta passes — in
      // the first extension round `prev == seed_level`, so the delta atom
      // ranges over exactly the seeded facts while earlier atoms stay on
      // strictly older (base) rows. Restricted chase only (the fallback
      // matrix rejects semi-oblivious): satisfied heads are skipped,
      // which is also what makes re-derivations of base facts free.
      const bool full_pass = !options.semi_naive || force_full;
      force_full = false;
      std::unordered_set<uint32_t> added_this;
      MDQA_RETURN_IF_ERROR(loop.Round(rules, static_cast<uint32_t>(round),
                                      full_pass, &added_prev, &added_this));
      if (loop.interrupted()) break;
      MDQA_RETURN_IF_ERROR(loop.NoteMemory());
      if (loop.interrupted()) break;
      dirty_since_egd.insert(added_this.begin(), added_this.end());
      dirty_total.insert(added_this.begin(), added_this.end());
      added_prev = std::move(added_this);
      if (added_prev.empty()) break;  // TGD fixpoint for this alternation
    }
    if (loop.interrupted() || budget_exhausted || !has_egds) break;

    // The EGDs were at fixpoint when the frontier was captured, so they
    // can only fire again if some EGD body predicate gained a fact since
    // the last EGD pass.
    bool egd_relevant = false;
    for (const Rule& egd : egds) {
      for (const Atom& b : egd.body) {
        if (dirty_since_egd.count(b.predicate) > 0) {
          egd_relevant = true;
          break;
        }
      }
      if (egd_relevant) break;
    }
    if (!egd_relevant) break;
    dirty_since_egd.clear();

    // Separable EGDs: re-run the EGD fixpoint after the TGD restart; a
    // merge rewrites facts in place at their old levels (invisible to
    // delta windows), so the next TGD sweep runs full passes.
    uint64_t merges = 0;
    MDQA_RETURN_IF_ERROR(loop.RunEgds(program, &merges));
    if (loop.interrupted() || merges == 0) break;
    force_full = true;
  }

  if (!loop.interrupted() && !budget_exhausted &&
      options.check_constraints) {
    // The base run checked every constraint before capturing the
    // frontier, so only constraints reachable from new facts can have
    // flipped. EGD merges rewrite old facts in place, invalidating that
    // reasoning — any merge forces the unrestricted check.
    const std::unordered_set<uint32_t>* filter =
        stats->egd_merges == 0 ? &dirty_total : nullptr;
    MDQA_RETURN_IF_ERROR(loop.Absorb(
        CheckConstraints(program, *instance, options.budget, filter)));
  }
  loop.Finish(round, budget_exhausted,
              "chase extension stopped after max_rounds=" +
                  std::to_string(options.max_rounds) + " additional rounds");
  if (stats->frontier.valid) {
    stats->frontier.egd_merges = frontier.egd_merges + stats->egd_merges;
  }
  return Status::Ok();
}

Status Chase::CheckConstraints(const Program& program,
                               const Instance& instance,
                               ExecutionBudget* budget,
                               const std::unordered_set<uint32_t>* dirty) {
  const Vocabulary& vocab = *instance.vocab();
  CqEvaluator eval(instance, nullptr, budget);
  for (const Rule& nc : program.Constraints()) {
    if (dirty != nullptr) {
      // Incremental mode: the instance passed a full check at frontier
      // capture, so a new violation needs at least one new body fact.
      bool relevant = false;
      for (const Atom& b : nc.body) {
        if (dirty->count(b.predicate) > 0) {
          relevant = true;
          break;
        }
      }
      if (!relevant) continue;
    }
    Status violation = Status::Ok();
    MDQA_RETURN_IF_ERROR(eval.Enumerate(
        nc.body, nc.negated, nc.comparisons, Subst{}, {},
        [&](const Subst& subst) {
          violation = Status::Inconsistent("negative constraint violated: " +
                                           WitnessString(vocab, nc, subst));
          return false;
        }));
    if (!violation.ok()) return violation;
  }
  return Status::Ok();
}

Result<uint64_t> Chase::ApplyEgds(const Program& program, Instance* instance,
                                  ExecutionBudget* budget) {
  const std::vector<Rule> egds = program.Egds();
  if (egds.empty()) return uint64_t{0};
  const Vocabulary& vocab = *instance->vocab();
  uint64_t total_merges = 0;

  while (true) {
    TermUnionFind uf;
    uint64_t merges = 0;
    Status clash = Status::Ok();
    CqEvaluator eval(*instance, nullptr, budget);
    for (const Rule& egd : egds) {
      MDQA_RETURN_IF_ERROR(eval.Enumerate(
          egd.body, egd.negated, egd.comparisons, Subst{}, {},
          [&](const Subst& subst) {
            Term a = uf.Find(Resolve(subst, egd.egd_lhs));
            Term b = uf.Find(Resolve(subst, egd.egd_rhs));
            if (a == b) return true;
            if (a.IsConstant() && b.IsConstant()) {
              clash = Status::Inconsistent(
                  "EGD requires " + vocab.TermToString(a) + " = " +
                  vocab.TermToString(b) + " via " +
                  WitnessString(vocab, egd, subst));
              return false;
            }
            uf.Union(a, b);
            ++merges;
            return true;
          }));
      if (!clash.ok()) return clash;
    }
    if (merges == 0) break;
    *instance = Canonicalize(*instance, &uf);
    total_merges += merges;
  }
  return total_merges;
}

}  // namespace mdqa::datalog
