#include "datalog/join.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "base/intern.h"
#include "datalog/column.h"

namespace mdqa::datalog {

namespace {

// Rows between budget polls; must match cq_eval's EvalState::kBudgetBatch
// so the postings path charges steps identically to the legacy executor.
constexpr uint32_t kBudgetBatch = 64;
// Bindings per block chunk: a full chunk is pushed depth-first before the
// current depth continues, bounding memory while preserving the
// lexicographic (legacy) emission order. Chunks start small and grow
// geometrically toward the cap so an early-exit consumer (Satisfiable's
// first witness) does not pay for a full block of speculative bindings;
// chunk boundaries batch work without reordering it.
constexpr size_t kBlockCap = 1024;
constexpr size_t kBlockInitial = 8;
// Minimum incoming block size before a batch hash build is considered.
constexpr size_t kHashBuildMinBlock = 8;

constexpr size_t kDepthInitial = std::numeric_limits<size_t>::max() - 1;
constexpr size_t kDepthNever = std::numeric_limits<size_t>::max();

// Role of one atom position in the compiled plan.
enum class PosKind : uint8_t {
  kConst,   // ground term in the atom (constant or labeled null)
  kBound,   // variable bound by the initial subst or an earlier atom
  kNew,     // variable first bound here
  kRepeat,  // variable repeating an earlier (kNew) position of this atom
};

struct PlannedPos {
  PosKind kind;
  Term constant;         // kConst
  uint32_t slot = 0;     // kBound / kNew
  size_t repeat_of = 0;  // kRepeat: the earlier position to compare with
};

// One side of a comparison or one term of a negated atom.
struct TermRef {
  bool is_slot = false;
  Term constant;      // !is_slot
  uint32_t slot = 0;  // is_slot
};

struct PlannedCmp {
  CmpOp op;
  TermRef lhs, rhs;
};

struct PlannedNeg {
  uint32_t pred;
  std::vector<TermRef> terms;
};

struct PlannedAtom {
  const FactTable* table = nullptr;  // null when the predicate is empty
  size_t orig_index = 0;             // index into the caller's atom list
  std::vector<PlannedPos> pos;
  std::vector<size_t> bound_positions;  // positions with kConst/kBound
  std::vector<size_t> checks;           // comparisons decidable here
  std::vector<size_t> neg_checks;       // negated atoms decidable here
};

struct Plan {
  std::vector<PlannedAtom> order;
  uint32_t num_slots = 0;
  // Variables bound by atoms (not by the initial subst), for the emitted
  // substitution.
  std::vector<std::pair<uint32_t, uint32_t>> out_vars;  // (var id, slot)
  std::vector<PlannedCmp> cmps;
  std::vector<PlannedNeg> negs;
  std::vector<size_t> initial_checks;      // decidable before any atom
  std::vector<size_t> initial_neg_checks;  // decidable before any atom
  // Some comparison/negated variable is never bound: legacy semantics
  // raise InvalidArgument on the first completed solution (zero-solution
  // runs return OK), so the error fires at emit time.
  bool unbound_comparison = false;
  bool unbound_negated = false;
};

// Builds the compiled plan, replicating the legacy greedy atom order:
// most bound positions first, ties by smaller table, ties by lower index.
// The choice depends only on the (static) bound-variable sets and table
// sizes, never on candidate values, so it equals the order the
// backtracking evaluator re-derives at every recursion node.
void BuildPlan(const Instance& instance, const std::vector<Atom>& atoms,
               const std::vector<Atom>& negated,
               const std::vector<Comparison>& comparisons,
               const Subst& initial, Plan* plan,
               std::vector<Term>* initial_slots) {
  // Var counts per query are tiny, so a linear-scanned flat vector beats
  // a hash map for the var->slot directory (this runs once per chase
  // pass — setup cost is on the hot path).
  std::vector<std::pair<uint32_t, uint32_t>> slot_of;  // (var id, slot)
  std::vector<size_t> slot_depth;  // kDepthInitial / atom depth / kDepthNever
  std::vector<Term> prefill;       // slot -> initial value (when kDepthInitial)

  auto find_slot = [&](uint32_t var) -> int64_t {
    for (const auto& [v, s] : slot_of) {
      if (v == var) return s;
    }
    return -1;
  };
  auto slot_for = [&](uint32_t var) {
    int64_t found = find_slot(var);
    if (found >= 0) return static_cast<uint32_t>(found);
    uint32_t slot = static_cast<uint32_t>(slot_depth.size());
    slot_of.emplace_back(var, slot);
    slot_depth.push_back(kDepthNever);
    prefill.push_back(Term());
    return slot;
  };

  for (const auto& [var, value] : initial) {
    (void)value;
    uint32_t slot = slot_for(var);
    slot_depth[slot] = kDepthInitial;
    prefill[slot] = Resolve(initial, Term::Variable(var));  // ground (Run)
  }

  const size_t n = atoms.size();
  std::vector<bool> used(n, false);
  plan->order.reserve(n);
  for (size_t depth = 0; depth < n; ++depth) {
    int best = -1;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const Atom& atom = atoms[i];
      size_t bound = 0;
      for (Term t : atom.terms) {
        if (t.IsGround()) {
          ++bound;
        } else {
          int64_t slot = find_slot(t.id());
          if (slot >= 0 && slot_depth[static_cast<size_t>(slot)] != kDepthNever) {
            ++bound;
          }
        }
      }
      const FactTable* table = instance.Table(atom.predicate);
      size_t size = table == nullptr ? 0 : table->size();
      if (best < 0 || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = static_cast<int>(i);
        best_bound = bound;
        best_size = size;
      }
    }
    used[static_cast<size_t>(best)] = true;
    const Atom& atom = atoms[static_cast<size_t>(best)];

    PlannedAtom pa;
    pa.table = instance.Table(atom.predicate);
    pa.orig_index = static_cast<size_t>(best);
    pa.pos.resize(atom.terms.size());
    std::vector<std::pair<uint32_t, size_t>> first_pos;  // (var, position here)
    std::vector<std::pair<uint32_t, uint32_t>> introduced;  // position order
    for (size_t p = 0; p < atom.terms.size(); ++p) {
      Term t = atom.terms[p];
      PlannedPos& pp = pa.pos[p];
      if (t.IsGround()) {
        pp.kind = PosKind::kConst;
        pp.constant = t;
        pa.bound_positions.push_back(p);
        continue;
      }
      uint32_t slot = slot_for(t.id());
      if (slot_depth[slot] != kDepthNever) {
        pp.kind = PosKind::kBound;
        pp.slot = slot;
        pa.bound_positions.push_back(p);
        continue;
      }
      size_t repeat_of = atom.terms.size();
      for (const auto& [v, fp] : first_pos) {
        if (v == t.id()) {
          repeat_of = fp;
          break;
        }
      }
      if (repeat_of != atom.terms.size()) {
        pp.kind = PosKind::kRepeat;
        pp.repeat_of = repeat_of;
        continue;
      }
      pp.kind = PosKind::kNew;
      pp.slot = slot;
      first_pos.emplace_back(t.id(), p);
      introduced.emplace_back(t.id(), slot);
    }
    // Variables introduced here become bound for every later depth; the
    // emitted substitution adds them in binding (position) order, like
    // the legacy matcher.
    for (const auto& [var, slot] : introduced) {
      slot_depth[slot] = depth;
      plan->out_vars.emplace_back(var, slot);
    }
    plan->order.push_back(std::move(pa));
  }

  auto term_ref = [&](Term t, size_t* ref_depth) {
    TermRef ref;
    if (t.IsGround()) {
      ref.constant = t;
      return ref;
    }
    uint32_t slot = slot_for(t.id());
    ref.is_slot = true;
    ref.slot = slot;
    size_t d = slot_depth[slot];
    if (d == kDepthNever) {
      *ref_depth = kDepthNever;
    } else if (d != kDepthInitial &&
               (*ref_depth == kDepthInitial || d > *ref_depth)) {
      *ref_depth = d;
    }
    return ref;
  };

  // Each comparison / negated atom is checked exactly once, at the first
  // depth where all its variables are bound (the legacy evaluator
  // re-checks every ground one at every depth — idempotent, since a
  // failing check already pruned the branch).
  for (const Comparison& c : comparisons) {
    PlannedCmp pc;
    pc.op = c.op;
    size_t ref_depth = kDepthInitial;
    pc.lhs = term_ref(c.lhs, &ref_depth);
    pc.rhs = term_ref(c.rhs, &ref_depth);
    size_t idx = plan->cmps.size();
    plan->cmps.push_back(pc);
    if (ref_depth == kDepthNever) {
      plan->unbound_comparison = true;
    } else if (ref_depth == kDepthInitial) {
      plan->initial_checks.push_back(idx);
    } else {
      plan->order[ref_depth].checks.push_back(idx);
    }
  }
  for (const Atom& a : negated) {
    PlannedNeg pn;
    pn.pred = a.predicate;
    size_t ref_depth = kDepthInitial;
    pn.terms.reserve(a.terms.size());
    for (Term t : a.terms) pn.terms.push_back(term_ref(t, &ref_depth));
    size_t idx = plan->negs.size();
    plan->negs.push_back(std::move(pn));
    if (ref_depth == kDepthNever) {
      plan->unbound_negated = true;
    } else if (ref_depth == kDepthInitial) {
      plan->initial_neg_checks.push_back(idx);
    } else {
      plan->order[ref_depth].neg_checks.push_back(idx);
    }
  }

  plan->num_slots = static_cast<uint32_t>(slot_depth.size());
  *initial_slots = std::move(prefill);
}

// A block of partial bindings: `count` rows of `num_slots` terms each.
struct Block {
  std::vector<Term> data;
  size_t count = 0;
};

// Lazily built batch hash index for one depth: in-window rows keyed by
// the hash of the bound-position term tuple. Built at most once per run
// (the table is immutable during evaluation) and reused across chunks.
struct HashIndex {
  bool built = false;
  std::unordered_map<uint64_t, std::vector<uint32_t>> map;
};

struct Executor {
  const Instance* instance;
  const Vocabulary* vocab;
  EvalStats* stats;         // may be null
  ExecutionBudget* budget;  // may be null
  const std::vector<AtomLevelWindow>* windows;  // may be null
  const std::function<bool(const Subst&)>* on_match;
  const Subst* initial;
  Plan plan;

  uint32_t budget_tick = 0;
  bool stop = false;
  Status error;
  Subst out_subst;                   // reused across solutions
  std::vector<Term*> out_ptrs;       // plan.out_vars -> slot in out_subst
  std::vector<Term> scratch_targets; // bound-position target terms
  std::vector<HashIndex> hash_index; // one per depth
  std::vector<Block> block_pool;     // one output block per depth, reused
  std::vector<Term> neg_terms;       // reused negated-atom instantiation

  // Builds the emitted substitution once: the initial bindings plus one
  // entry per plan-bound variable, whose mapped Terms are then updated
  // in place per solution (unordered_map nodes are pointer-stable under
  // insertion, and nothing is erased). This keeps the per-solution cost
  // at plain stores instead of a map copy — the legacy evaluator also
  // reuses one substitution across all solutions.
  void PrepareEmit() {
    out_subst = *initial;
    out_ptrs.reserve(plan.out_vars.size());
    for (const auto& [var, slot] : plan.out_vars) {
      (void)slot;
      out_ptrs.push_back(&out_subst.emplace(var, Term()).first->second);
    }
  }

  bool Tick() {
    if (budget == nullptr) return true;
    if ((++budget_tick & (kBudgetBatch - 1)) != 0) return true;
    Status bs = budget->Check("cq:row");
    if (bs.ok()) bs = budget->ChargeSteps(kBudgetBatch);
    if (!bs.ok()) {
      error = std::move(bs);
      return false;
    }
    return true;
  }

  Term ResolveRef(const TermRef& ref, const Term* slots) const {
    return ref.is_slot ? slots[ref.slot] : ref.constant;
  }

  bool ChecksHold(const std::vector<size_t>& checks,
                  const std::vector<size_t>& neg_checks,
                  const Term* slots) {
    for (size_t idx : checks) {
      const PlannedCmp& c = plan.cmps[idx];
      if (!EvalComparison(*vocab, c.op, ResolveRef(c.lhs, slots),
                          ResolveRef(c.rhs, slots))) {
        return false;
      }
    }
    for (size_t idx : neg_checks) {
      const PlannedNeg& n = plan.negs[idx];
      neg_terms.clear();
      neg_terms.reserve(n.terms.size());
      for (const TermRef& ref : n.terms) {
        neg_terms.push_back(ResolveRef(ref, slots));
      }
      const FactTable* table = instance->Table(n.pred);
      if (table != nullptr && table->Contains(neg_terms.data())) return false;
    }
    return true;
  }

  // Verifies the unbound roles of `row` against the plan, evaluates the
  // newly decidable checks, and appends the extended binding to `out` on
  // success. Bound positions have already been verified by the caller
  // (codes, hash key, or there are none).
  bool AcceptCandidate(const PlannedAtom& pa, const Term* row,
                       const Term* in_slots, Block* out) {
    // The extended binding is built directly in the output block (one
    // copy, rolled back on rejection) instead of staging it in a scratch
    // row and copying again on acceptance.
    const size_t base = out->data.size();
    out->data.insert(out->data.end(), in_slots, in_slots + plan.num_slots);
    Term* slots = out->data.data() + base;
    for (size_t p = 0; p < pa.pos.size(); ++p) {
      const PlannedPos& pp = pa.pos[p];
      if (pp.kind == PosKind::kNew) {
        slots[pp.slot] = row[p];
      } else if (pp.kind == PosKind::kRepeat &&
                 row[p] != row[pp.repeat_of]) {
        out->data.resize(base);
        return false;
      }
    }
    if (!ChecksHold(pa.checks, pa.neg_checks, slots)) {
      out->data.resize(base);
      return false;
    }
    if (stats != nullptr) ++stats->atoms_matched;
    ++out->count;
    return true;
  }

  // True when building a hash index over the whole table is expected to
  // be cheaper than per-binding postings probes for this chunk: the
  // estimated probe volume (chunk size × rows-per-distinct-term of the
  // most selective bound position) must amortize the O(rows) build.
  bool HashBuildWorthIt(const PlannedAtom& pa, size_t chunk_count) const {
    if (chunk_count < kHashBuildMinBlock) return false;
    uint64_t distinct = 1;
    for (size_t p : pa.bound_positions) {
      distinct = std::max<uint64_t>(distinct, pa.table->DistinctAt(p));
    }
    const uint64_t rows = pa.table->size();
    const uint64_t est_per_binding = std::max<uint64_t>(1, rows / distinct);
    return static_cast<uint64_t>(chunk_count) * est_per_binding >= rows;
  }

  static uint64_t HashTargets(const Term* terms, size_t count) {
    size_t seed = count;
    for (size_t i = 0; i < count; ++i) HashCombine(&seed, TermHash{}(terms[i]));
    return seed;
  }

  void EnsureHashIndex(size_t depth, const PlannedAtom& pa,
                       const AtomLevelWindow& window) {
    HashIndex& hi = hash_index[depth];
    if (hi.built) return;
    hi.built = true;
    const FactTable* table = pa.table;
    std::vector<Term> key_terms(pa.bound_positions.size());
    for (uint32_t r = 0; r < table->size(); ++r) {
      const uint32_t lvl = table->Level(r);
      if (lvl < window.min_level || lvl > window.max_level) continue;
      const Term* row = table->Row(r);
      for (size_t j = 0; j < pa.bound_positions.size(); ++j) {
        key_terms[j] = row[pa.bound_positions[j]];
      }
      hi.map[HashTargets(key_terms.data(), key_terms.size())].push_back(r);
    }
  }

  void Emit(const Block& in) {
    for (size_t bi = 0; bi < in.count && !stop && error.ok(); ++bi) {
      // Legacy order: the groundness errors surface on the first
      // completed solution (comparisons checked before negation).
      if (plan.unbound_comparison) {
        error = Status::InvalidArgument(
            "comparison variable not bound by any relational atom");
        return;
      }
      if (plan.unbound_negated) {
        error = Status::InvalidArgument(
            "negated-atom variable not bound by any positive atom");
        return;
      }
      const Term* slots = in.data.data() + bi * plan.num_slots;
      if (stats != nullptr) ++stats->solutions;
      for (size_t i = 0; i < out_ptrs.size(); ++i) {
        *out_ptrs[i] = slots[plan.out_vars[i].second];
      }
      if (!(*on_match)(out_subst)) stop = true;
    }
  }

  void Process(size_t depth, const Block& in) {
    if (stop || !error.ok() || in.count == 0) return;
    if (depth == plan.order.size()) {
      Emit(in);
      return;
    }
    const PlannedAtom& pa = plan.order[depth];
    const FactTable* table = pa.table;
    if (table == nullptr || table->size() == 0) return;

    AtomLevelWindow window;
    if (windows != nullptr) window = (*windows)[pa.orig_index];
    auto level_ok = [&](uint32_t r) {
      const uint32_t lvl = table->Level(r);
      return lvl >= window.min_level && lvl <= window.max_level;
    };

    // Per-depth reusable output block: recursion touches one block per
    // level and levels never alias, so clearing (capacity kept) avoids a
    // fresh allocation on every Process call.
    Block& out = block_pool[depth];
    out.count = 0;
    out.data.clear();
    size_t chunk_cap = kBlockInitial;
    auto flush_if_full = [&] {
      if (out.count >= chunk_cap) {
        Process(depth + 1, out);
        out.count = 0;
        out.data.clear();
        chunk_cap = std::min(chunk_cap * 4, kBlockCap);
      }
    };

    const size_t nbound = pa.bound_positions.size();
    const bool use_hash =
        nbound > 0 && HashBuildWorthIt(pa, in.count);
    if (use_hash) EnsureHashIndex(depth, pa, window);

    const size_t nsegs = table->NumSegments();
    std::vector<uint32_t> seg_codes;  // per (segment, bound position)

    for (size_t bi = 0; bi < in.count; ++bi) {
      if (stop || !error.ok()) return;
      const Term* slots = in.data.data() + bi * plan.num_slots;

      if (nbound == 0) {
        // Full scan over the flat row array, ascending global rows.
        if (stats != nullptr) ++stats->full_scans;
        for (uint32_t r = 0; r < table->size(); ++r) {
          if (stop || !error.ok()) return;
          if (!level_ok(r)) continue;
          if (!Tick()) return;
          if (stats != nullptr) ++stats->rows_tried;
          AcceptCandidate(pa, table->Row(r), slots, &out);
          flush_if_full();
        }
        continue;
      }

      // Resolve this binding's target terms for the bound positions.
      for (size_t j = 0; j < nbound; ++j) {
        const PlannedPos& pp = pa.pos[pa.bound_positions[j]];
        scratch_targets[j] =
            pp.kind == PosKind::kConst ? pp.constant : slots[pp.slot];
      }

      if (use_hash) {
        if (stats != nullptr) ++stats->index_probes;
        const HashIndex& hi = hash_index[depth];
        auto it = hi.map.find(HashTargets(scratch_targets.data(), nbound));
        if (it == hi.map.end()) continue;
        for (uint32_t r : it->second) {
          if (stop || !error.ok()) return;
          if (!Tick()) return;
          if (stats != nullptr) ++stats->rows_tried;
          // The combined key is lossy: verify every bound position by
          // term equality before accepting the bucket hit. Resolve each
          // expected term from the plan + parent slots here rather than
          // from scratch_targets: a chunk flush inside this loop recurses
          // into deeper depths, which reuse (clobber) the shared scratch
          // buffer. `slots` points into the parent block, which deeper
          // recursion never touches.
          const Term* row = table->Row(r);
          bool match = true;
          for (size_t j = 0; j < nbound; ++j) {
            const PlannedPos& pp = pa.pos[pa.bound_positions[j]];
            const Term want =
                pp.kind == PosKind::kConst ? pp.constant : slots[pp.slot];
            if (row[pa.bound_positions[j]] != want) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          AcceptCandidate(pa, row, slots, &out);
          flush_if_full();
        }
        continue;
      }

      // Postings path: per segment, encode the targets once; the driver
      // is the bound position with the fewest total postings (first-wins
      // tie-break, matching the legacy most-selective-index choice), and
      // the other bound positions verify by code comparison.
      if (stats != nullptr) ++stats->index_probes;
      seg_codes.assign(nsegs * nbound, Column::kNoCode);
      size_t driver = 0;
      size_t driver_count = std::numeric_limits<size_t>::max();
      for (size_t j = 0; j < nbound; ++j) {
        const size_t p = pa.bound_positions[j];
        size_t count = 0;
        for (size_t k = 0; k < nsegs; ++k) {
          const FactTable::SegmentView view = table->SegmentAt(k);
          const uint32_t code =
              view.segment->column(p).CodeOf(scratch_targets[j]);
          seg_codes[k * nbound + j] = code;
          if (code != Column::kNoCode) {
            count += view.segment->column(p).Postings(code).size();
          }
        }
        if (count < driver_count) {
          driver = j;
          driver_count = count;
        }
      }
      if (driver_count == 0) continue;
      const size_t driver_pos = pa.bound_positions[driver];
      for (size_t k = 0; k < nsegs; ++k) {
        // A segment whose dictionary misses any target term has no
        // matching rows at all.
        bool viable = true;
        for (size_t j = 0; j < nbound; ++j) {
          if (seg_codes[k * nbound + j] == Column::kNoCode) {
            viable = false;
            break;
          }
        }
        if (!viable) continue;
        const FactTable::SegmentView view = table->SegmentAt(k);
        const Column& driver_col = view.segment->column(driver_pos);
        for (uint32_t local :
             driver_col.Postings(seg_codes[k * nbound + driver])) {
          if (stop || !error.ok()) return;
          const uint32_t r = view.base + local;
          if (!level_ok(r)) continue;
          if (!Tick()) return;
          if (stats != nullptr) ++stats->rows_tried;
          bool match = true;
          for (size_t j = 0; j < nbound && match; ++j) {
            if (j == driver) continue;
            match = view.segment->column(pa.bound_positions[j])
                        .CodeAt(local) == seg_codes[k * nbound + j];
          }
          if (!match) continue;
          AcceptCandidate(pa, table->Row(r), slots, &out);
          flush_if_full();
        }
      }
    }
    Process(depth + 1, out);
  }
};

}  // namespace

Status BlockJoin::Run(const std::vector<Atom>& atoms,
                      const std::vector<Atom>& negated,
                      const std::vector<Comparison>& comparisons,
                      const Subst& initial,
                      const std::vector<AtomLevelWindow>& windows,
                      const std::function<bool(const Subst&)>& on_match) {
  Executor ex;
  ex.instance = &instance_;
  ex.vocab = instance_.vocab().get();
  ex.stats = stats_;
  ex.budget = budget_;
  ex.windows = windows.empty() ? nullptr : &windows;
  ex.on_match = &on_match;
  ex.initial = &initial;

  std::vector<Term> initial_slots;
  BuildPlan(instance_, atoms, negated, comparisons, initial, &ex.plan,
            &initial_slots);
  initial_slots.resize(ex.plan.num_slots, Term());

  size_t max_bound = 0;
  for (const PlannedAtom& pa : ex.plan.order) {
    max_bound = std::max(max_bound, pa.bound_positions.size());
  }
  ex.scratch_targets.resize(max_bound);
  ex.hash_index.resize(ex.plan.order.size());
  ex.block_pool.resize(ex.plan.order.size());
  ex.PrepareEmit();
  // The legacy evaluator prunes the whole enumeration when a comparison
  // or negated atom already fails under the initial bindings.
  if (!ex.ChecksHold(ex.plan.initial_checks, ex.plan.initial_neg_checks,
                     initial_slots.data())) {
    return Status::Ok();
  }

  Block root;
  root.data = std::move(initial_slots);
  root.count = 1;
  ex.Process(0, root);
  return ex.error;
}

}  // namespace mdqa::datalog
