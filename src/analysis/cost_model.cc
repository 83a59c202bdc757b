#include "analysis/cost_model.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <vector>

namespace mdqa::analysis {

namespace {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

// Saturation ceiling for every work-unit quantity: far above any real
// workload, low enough that downstream multiplications cannot overflow.
constexpr uint64_t kCap = 1'000'000'000'000'000ull;  // 1e15
// Predicted size assigned to non-weakly-acyclic programs (the chase may
// not terminate; materialization should only win when nothing else is
// sound).
constexpr uint64_t kNonTerminatingFacts = 1'000'000'000'000ull;  // 1e12
// Unfolding-breadth ceiling; recursive rule sets (whose UCQ rewriting
// may not even be finite) saturate here.
constexpr uint64_t kBreadthCap = 20'000;
// Join-size estimates iterate to a bounded fixpoint.
constexpr int kFixpointIterations = 16;
// Relative weight of applying one chase trigger (match + dedup + index
// maintenance) vs scanning one EDB row during UCQ evaluation.
constexpr uint64_t kChaseFactWeight = 4;
// The WS engine re-derives per query via proof schemas instead of
// evaluating a flat UCQ; bookkeeping roughly doubles the per-disjunct
// work.
constexpr uint64_t kWsWeight = 2;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a >= kCap - std::min(b, kCap) ? kCap : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a >= kCap / b) return kCap;
  return a * b;
}

}  // namespace

datalog::InstanceStatistics CostModel::CollectEdbStats(
    const Program& program) {
  // Computed straight off the fact list. Building a throwaway Instance
  // (dictionary columns, dedup tables, postings) just to read row and
  // distinct counts dominated engine-selection time on large EDBs. The
  // numbers must equal Instance::FromProgram(program).CollectStatistics()
  // exactly — duplicate facts count once, per-position distincts are
  // over the deduplicated rows — because incremental and from-scratch
  // sessions compare predicted costs byte-for-byte.
  datalog::InstanceStatistics stats;
  std::unordered_map<uint32_t, std::vector<const Atom*>> by_pred;
  for (const Atom& f : program.facts()) by_pred[f.predicate].push_back(&f);
  stats.tables.reserve(by_pred.size());
  std::vector<std::vector<uint64_t>> rows;
  std::vector<uint64_t> col;
  for (const auto& [pred, facts] : by_pred) {
    const size_t arity = facts.front()->arity();
    // Term::Key() is injective, so key-vector equality is row equality:
    // sort + unique is an exact dedup, no hashing involved.
    rows.clear();
    rows.reserve(facts.size());
    for (const Atom* a : facts) {
      std::vector<uint64_t> key;
      key.reserve(arity);
      for (Term t : a->terms) key.push_back(t.Key());
      rows.push_back(std::move(key));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    datalog::TableStatistics t;
    t.rows = rows.size();
    t.distinct.reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      col.clear();
      col.reserve(rows.size());
      for (const std::vector<uint64_t>& r : rows) col.push_back(r[i]);
      std::sort(col.begin(), col.end());
      t.distinct.push_back(static_cast<uint64_t>(
          std::unique(col.begin(), col.end()) - col.begin()));
    }
    stats.total_facts += t.rows;
    stats.max_rows = std::max(stats.max_rows, t.rows);
    stats.tables.emplace(pred, std::move(t));
  }
  return stats;
}

CostModel::CostModel(const Program& /*program*/,
                     const datalog::ProgramAnalysis& analysis,
                     datalog::InstanceStatistics edb_stats)
    : edb_stats_(std::move(edb_stats)),
      weakly_acyclic_(analysis.IsWeaklyAcyclic()) {
  const std::vector<Rule>& tgds = analysis.tgds();

  // Distinct-count of a position: exact for EDB tables (the always-
  // maintained per-position indexes), bounded by the current row
  // estimate for derived predicates.
  auto distinct_at = [this](uint32_t pred, size_t idx,
                            uint64_t rows_estimate) -> uint64_t {
    auto it = edb_stats_.tables.find(pred);
    if (it != edb_stats_.tables.end() && idx < it->second.distinct.size() &&
        it->second.distinct[idx] > 0) {
      return it->second.distinct[idx];
    }
    return std::max<uint64_t>(1, rows_estimate);
  };

  // --- predicted chase size: iterated join-size estimates -----------------
  for (const auto& [pred, t] : edb_stats_.tables) {
    predicted_rows_[pred] = t.rows;
  }
  auto estimate_firings =
      [&](const Rule& rule,
          const std::unordered_map<uint32_t, uint64_t>& rows) -> uint64_t {
    uint64_t est = 1;
    for (const Atom& a : rule.body) {
      auto it = rows.find(a.predicate);
      est = SatMul(est, it == rows.end() ? 0 : it->second);
    }
    if (est == 0) return 0;
    // One division per extra occurrence of a repeated variable (System-R:
    // join size divides by the largest distinct-count among the joined
    // positions), one per constant (point selection).
    std::unordered_map<uint32_t, uint64_t> occurrences;
    std::unordered_map<uint32_t, uint64_t> max_distinct;
    for (const Atom& a : rule.body) {
      auto rit = rows.find(a.predicate);
      const uint64_t r = rit == rows.end() ? 0 : rit->second;
      for (size_t i = 0; i < a.terms.size(); ++i) {
        const Term t = a.terms[i];
        const uint64_t d = distinct_at(a.predicate, i, r);
        if (t.IsVariable()) {
          ++occurrences[t.id()];
          uint64_t& m = max_distinct[t.id()];
          m = std::max(m, d);
        } else {
          est = std::max<uint64_t>(1, est / std::max<uint64_t>(1, d));
        }
      }
    }
    for (const auto& [var, count] : occurrences) {
      for (uint64_t k = 1; k < count; ++k) {
        est = std::max<uint64_t>(1, est / std::max<uint64_t>(1,
                                                            max_distinct[var]));
      }
    }
    return est;
  };
  for (int iter = 0; iter < kFixpointIterations; ++iter) {
    std::unordered_map<uint32_t, uint64_t> next;
    for (const auto& [pred, t] : edb_stats_.tables) next[pred] = t.rows;
    for (const Rule& rule : tgds) {
      const uint64_t est = estimate_firings(rule, predicted_rows_);
      for (const Atom& h : rule.head) {
        uint64_t& r = next[h.predicate];
        r = SatAdd(r, est);
      }
    }
    if (next == predicted_rows_) break;
    predicted_rows_ = std::move(next);
  }
  for (const auto& [pred, r] : predicted_rows_) {
    (void)pred;
    predicted_chase_facts_ = SatAdd(predicted_chase_facts_, r);
  }
  if (!weakly_acyclic_) {
    predicted_chase_facts_ =
        std::max(predicted_chase_facts_, kNonTerminatingFacts);
  }
  chase_cost_ = SatMul(kChaseFactWeight, predicted_chase_facts_);

  // --- unfolding breadth: how many disjuncts a goal atom expands into ----
  std::unordered_map<uint32_t, std::vector<size_t>> head_rules;
  for (size_t i = 0; i < tgds.size(); ++i) {
    for (const Atom& h : tgds[i].head) head_rules[h.predicate].push_back(i);
  }
  std::unordered_map<uint32_t, uint64_t> breadth_memo;
  std::unordered_set<uint32_t> visiting;
  std::function<uint64_t(uint32_t)> breadth = [&](uint32_t pred) -> uint64_t {
    auto memo = breadth_memo.find(pred);
    if (memo != breadth_memo.end()) return memo->second;
    if (visiting.count(pred) > 0) return kBreadthCap;  // recursive unfolding
    visiting.insert(pred);
    uint64_t r = 1;
    auto it = head_rules.find(pred);
    if (it != head_rules.end()) {
      for (size_t rule_index : it->second) {
        uint64_t prod = 1;
        for (const Atom& b : tgds[rule_index].body) {
          prod = std::min(kBreadthCap, SatMul(prod, breadth(b.predicate)));
        }
        r = std::min(kBreadthCap, SatAdd(r, prod));
      }
    }
    visiting.erase(pred);
    breadth_memo[pred] = r;
    return r;
  };
  uint64_t total_body_atoms = 0;
  for (const Rule& rule : tgds) {
    total_body_atoms += rule.body.size();
    for (const Atom& h : rule.head) {
      unfolding_breadth_ = std::max(unfolding_breadth_, breadth(h.predicate));
    }
    for (const Atom& b : rule.body) {
      unfolding_breadth_ = std::max(unfolding_breadth_, breadth(b.predicate));
    }
  }
  avg_body_atoms_ =
      tgds.empty() ? 1 : (total_body_atoms + tgds.size() - 1) / tgds.size();
  avg_body_atoms_ = std::max<uint64_t>(1, avg_body_atoms_);

  const uint64_t scan = std::max<uint64_t>(1, edb_stats_.max_rows);
  rewriting_cost_ = SatMul(unfolding_breadth_, SatMul(avg_body_atoms_, scan));
  ws_cost_ = SatMul(kWsWeight, rewriting_cost_);
}

std::string CostModel::ToString(const datalog::Vocabulary& vocab) const {
  std::string out = "cost model (work units):\n";
  out += "  EDB: " + std::to_string(edb_stats_.total_facts) +
         " facts, largest table " + std::to_string(edb_stats_.max_rows) +
         " rows\n";
  out += "  predicted chase size: " + std::to_string(predicted_chase_facts_) +
         " facts";
  if (!weakly_acyclic_) out += " (non-weakly-acyclic termination penalty)";
  out += "\n";
  out += "  unfolding breadth: " + std::to_string(unfolding_breadth_) +
         ", avg body atoms: " + std::to_string(avg_body_atoms_) + "\n";
  out += "  engine costs: chase=" + std::to_string(chase_cost_) +
         " rewriting=" + std::to_string(rewriting_cost_) +
         " deterministic-ws=" + std::to_string(ws_cost_) + "\n";
  std::vector<std::pair<std::string, uint64_t>> rows;
  rows.reserve(predicted_rows_.size());
  for (const auto& [pred, r] : predicted_rows_) {
    rows.emplace_back(vocab.PredicateName(pred), r);
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [name, r] : rows) {
    out += "  predicted rows " + name + ": " + std::to_string(r) + "\n";
  }
  return out;
}

}  // namespace mdqa::analysis
