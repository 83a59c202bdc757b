#include "qa/rewriter.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "datalog/containment.h"
#include "datalog/unify.h"

namespace mdqa::qa {

using datalog::Atom;
using datalog::Comparison;
using datalog::ConjunctiveQuery;
using datalog::CqEvaluator;
using datalog::Instance;
using datalog::Program;
using datalog::Resolve;
using datalog::Rule;
using datalog::Subst;
using datalog::SubstAtom;
using datalog::Term;
using datalog::UnifyAtoms;
using datalog::Vocabulary;

namespace {

// The most CQs one rewriting may generate before the rules are refused as
// not FO-rewritable for the query (see UcqRewriter).
constexpr size_t kMaxQueries = 20'000;

// Applies `s` to a whole query.
ConjunctiveQuery SubstQuery(const Subst& s, const ConjunctiveQuery& q) {
  ConjunctiveQuery out = q;
  for (Term& t : out.answer) t = Resolve(s, t);
  for (Atom& a : out.body) a = SubstAtom(s, a);
  for (Comparison& c : out.comparisons) {
    c.lhs = Resolve(s, c.lhs);
    c.rhs = Resolve(s, c.rhs);
  }
  return out;
}

// Removes duplicate body atoms (set semantics of conjunction).
void DedupBody(ConjunctiveQuery* q) {
  std::vector<Atom> out;
  for (const Atom& a : q->body) {
    if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
  }
  q->body = std::move(out);
}

// Occurrences of variable `v` across the whole query.
size_t CountVar(const ConjunctiveQuery& q, uint32_t v) {
  size_t n = 0;
  for (Term t : q.answer) {
    if (t.IsVariable() && t.id() == v) ++n;
  }
  for (const Atom& a : q.body) {
    for (Term t : a.terms) {
      if (t.IsVariable() && t.id() == v) ++n;
    }
  }
  for (const Comparison& c : q.comparisons) {
    for (Term t : {c.lhs, c.rhs}) {
      if (t.IsVariable() && t.id() == v) ++n;
    }
  }
  return n;
}

// Variable-name-independent signature used to sort atoms before
// canonical renaming.
std::string AtomSignature(const Atom& a) {
  std::string s = std::to_string(a.predicate);
  for (Term t : a.terms) {
    s += t.IsVariable() ? "|?" : "|" + std::to_string(t.Key());
  }
  return s;
}

// Canonical string of a CQ: body sorted by signature, variables renamed in
// scan order. A dedup key (near-canonical: variable automorphisms may
// produce distinct keys, costing only redundant work).
std::string CanonicalKey(const ConjunctiveQuery& q) {
  ConjunctiveQuery sorted = q;
  std::stable_sort(sorted.body.begin(), sorted.body.end(),
                   [](const Atom& a, const Atom& b) {
                     return AtomSignature(a) < AtomSignature(b);
                   });
  std::unordered_map<uint32_t, int> names;
  auto term_key = [&names](Term t) {
    if (!t.IsVariable()) return std::to_string(t.Key());
    auto [it, _] = names.emplace(t.id(), static_cast<int>(names.size()));
    return "v" + std::to_string(it->second);
  };
  std::string key;
  for (Term t : sorted.answer) key += term_key(t) + ",";
  key += ":-";
  for (const Atom& a : sorted.body) {
    key += std::to_string(a.predicate) + "(";
    for (Term t : a.terms) key += term_key(t) + ",";
    key += ")";
  }
  for (const Comparison& c : sorted.comparisons) {
    key += term_key(c.lhs);
    key += datalog::CmpOpToString(c.op);
    key += term_key(c.rhs);
  }
  return key;
}

}  // namespace

Result<std::vector<ConjunctiveQuery>> UcqRewriter::Rewrite(
    const Program& program, const ConjunctiveQuery& query,
    const RewriteOptions& options, RewriteStats* stats) {
  MDQA_RETURN_IF_ERROR(query.Validate());
  if (query.HasNegation()) {
    return Status::Unimplemented(
        "UCQ rewriting does not support negated query atoms; use the "
        "chase engine");
  }
  const std::vector<Rule> tgds = program.Tgds();
  for (const Rule& r : tgds) {
    if (r.head.size() != 1) {
      return Status::Unimplemented(
          "UCQ rewriting supports single-atom-head TGDs only (form (10) "
          "rules require the chase/WS engines)");
    }
    if (r.HasNegation()) {
      return Status::Unimplemented(
          "UCQ rewriting does not support rules with negation; use the "
          "chase engine");
    }
  }
  Vocabulary* vocab = program.vocab().get();

  std::vector<ConjunctiveQuery> result;
  std::unordered_set<std::string> seen;
  std::deque<size_t> worklist;

  auto push = [&](ConjunctiveQuery q) -> bool {
    DedupBody(&q);
    std::string key = CanonicalKey(q);
    ++stats->generated;
    if (!seen.insert(std::move(key)).second) return true;
    result.push_back(std::move(q));
    worklist.push_back(result.size() - 1);
    return result.size() <= kMaxQueries;
  };
  if (!push(query)) {
    return Status::ResourceExhausted("rewriting exceeded max_queries");
  }

  while (!worklist.empty()) {
    if (options.budget != nullptr) {
      Status bs = options.budget->Check("rewrite:iter");
      if (bs.ok()) bs = options.budget->ChargeSteps(1);
      if (!bs.ok()) {
        if (!ExecutionBudget::IsTruncation(bs)) return bs;
        // Graceful: every CQ generated so far is individually sound, so
        // the partial UCQ under-approximates the certain answers.
        stats->completeness = Completeness::kTruncated;
        stats->interruption = std::move(bs);
        break;
      }
    }
    ++stats->iterations;
    const ConjunctiveQuery q = result[worklist.front()];
    worklist.pop_front();

    // Rewriting steps: resolve one atom against one TGD head.
    for (size_t ai = 0; ai < q.body.size(); ++ai) {
      for (const Rule& tgd : tgds) {
        if (tgd.head[0].predicate != q.body[ai].predicate) continue;
        // Rename the TGD apart from the query.
        Subst renaming;
        for (uint32_t v : tgd.BodyVariables()) {
          renaming.emplace(v, vocab->FreshVariable());
        }
        for (uint32_t v : tgd.HeadVariables()) {
          renaming.emplace(v, vocab->FreshVariable());
        }
        Atom head = SubstAtom(renaming, tgd.head[0]);
        std::optional<Subst> mgu = UnifyAtoms(q.body[ai], head);
        if (!mgu.has_value()) continue;

        // Applicability: wherever the head carries an existential
        // variable, the query atom must carry a variable that occurs
        // exactly once in the whole query (a non-answer, non-shared
        // "don't care" — anything else could not be matched by the fresh
        // null). Distinct existentials must meet distinct query
        // variables, and one existential must not meet two.
        std::unordered_set<uint32_t> renamed_exist;
        for (uint32_t z : tgd.ExistentialVariables()) {
          renamed_exist.insert(Resolve(renaming, Term::Variable(z)).id());
        }
        bool applicable = true;
        std::unordered_map<uint32_t, uint32_t> exist_to_query;
        std::unordered_set<uint32_t> used_query_vars;
        for (size_t i = 0; i < head.terms.size() && applicable; ++i) {
          Term h_t = head.terms[i];
          if (!h_t.IsVariable() || renamed_exist.count(h_t.id()) == 0) {
            continue;
          }
          Term q_t = q.body[ai].terms[i];
          if (!q_t.IsVariable() || CountVar(q, q_t.id()) != 1) {
            applicable = false;
            break;
          }
          auto [it, inserted] = exist_to_query.emplace(h_t.id(), q_t.id());
          if (!inserted && it->second != q_t.id()) {
            applicable = false;  // one existential, two query variables
          } else if (inserted && !used_query_vars.insert(q_t.id()).second) {
            applicable = false;  // two existentials, one query variable
          }
        }
        if (!applicable) continue;

        ConjunctiveQuery rewritten = q;
        rewritten.body.erase(rewritten.body.begin() +
                             static_cast<long>(ai));
        for (const Atom& b : tgd.body) {
          rewritten.body.push_back(SubstAtom(renaming, b));
        }
        for (const Comparison& c : tgd.comparisons) {
          Comparison rc;
          rc.op = c.op;
          rc.lhs = Resolve(renaming, c.lhs);
          rc.rhs = Resolve(renaming, c.rhs);
          rewritten.comparisons.push_back(rc);
        }
        rewritten = SubstQuery(*mgu, rewritten);
        if (!push(std::move(rewritten))) {
          return Status::ResourceExhausted("rewriting exceeded max_queries");
        }
      }
    }

    // Factorization: unify two same-predicate atoms (keeps completeness
    // when existential positions must coincide before a rewriting step).
    for (size_t i = 0; i < q.body.size(); ++i) {
      for (size_t j = i + 1; j < q.body.size(); ++j) {
        if (q.body[i].predicate != q.body[j].predicate) continue;
        std::optional<Subst> mgu = UnifyAtoms(q.body[i], q.body[j]);
        if (!mgu.has_value() || mgu->empty()) continue;
        ConjunctiveQuery merged = SubstQuery(*mgu, q);
        if (!push(std::move(merged))) {
          return Status::ResourceExhausted("rewriting exceeded max_queries");
        }
      }
    }
  }

  // Exact minimization: first take each CQ to its core (resolution can
  // leave redundant atoms), then drop members contained in another (the
  // factorization step in particular produces subsumed CQs).
  for (ConjunctiveQuery& cq : result) {
    cq = datalog::MinimizeQuery(std::move(cq), *vocab);
  }
  result = datalog::MinimizeUcq(std::move(result), *vocab);
  stats->kept = result.size();
  return result;
}

Result<std::vector<std::vector<Term>>> UcqRewriter::Answers(
    const Program& program, const Instance& edb,
    const ConjunctiveQuery& query, const RewriteOptions& options,
    RewriteStats* stats) {
  RewriteStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RewriteStats{};
  MDQA_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> ucq,
                        Rewrite(program, query, options, stats));

  // Evaluate each disjunct; with a pool, concurrently (the EDB is
  // read-only and the budget's counters are atomic). Merging happens
  // below in disjunct order either way, so serial and parallel runs
  // produce the same tuple list; only the point at which a shared-budget
  // trip lands can differ (the result stays a sound subset).
  struct DisjunctResult {
    std::vector<std::vector<Term>> tuples;
    Status status = Status::Ok();        // hard evaluation error
    Status interruption = Status::Ok();  // budget truncation
  };
  std::vector<DisjunctResult> parts(ucq.size());
  auto eval_one = [&](size_t i) {
    CqEvaluator eval(edb, nullptr, options.budget);
    Result<std::vector<std::vector<Term>>> r =
        eval.Answers(ucq[i], &parts[i].interruption);
    if (r.ok()) {
      parts[i].tuples = std::move(*r);
    } else {
      parts[i].status = r.status();
    }
  };
  if (options.pool != nullptr && ucq.size() > 1) {
    options.pool->ParallelFor(ucq.size(), eval_one);
  }

  std::vector<std::vector<Term>> out;
  for (size_t i = 0; i < ucq.size(); ++i) {
    if (options.pool == nullptr || ucq.size() <= 1) eval_one(i);
    MDQA_RETURN_IF_ERROR(parts[i].status);
    for (std::vector<Term>& t : parts[i].tuples) {
      if (CqEvaluator::HasNull(t)) continue;
      if (std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(std::move(t));
      }
    }
    if (!parts[i].interruption.ok()) {
      // Answers found so far (across the disjuncts merged so far) stand.
      stats->completeness = Completeness::kTruncated;
      if (stats->interruption.ok()) {
        stats->interruption = std::move(parts[i].interruption);
      }
      break;
    }
  }
  return out;
}

}  // namespace mdqa::qa
