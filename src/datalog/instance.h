#ifndef MDQA_DATALOG_INSTANCE_H_
#define MDQA_DATALOG_INSTANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "datalog/program.h"
#include "datalog/segment.h"
#include "relational/database.h"

namespace mdqa::datalog {

/// Deduplicated ground-fact storage for one predicate: flattened term
/// rows with an open-addressing dedup index over row ids, plus
/// dictionary-encoded column segments (see Segment) that serve the
/// per-position probes: immutable shared sealed segments plus one mutable
/// overlay. The vectorized join executor (datalog/join.h) probes these
/// block-at-a-time.
/// Each row carries a derivation level: 0 for extensional facts, and the
/// chase round that derived it otherwise — so the level-bounded chase
/// used for weakly-sticky query answering is a chase whose budget caps
/// its rounds (`ExecutionBudget::set_max_rounds`).
///
/// Rows keep insertion order. Within one chase pass a rule's derived rows
/// land in sorted frontier order, except for a restricted-chase rule
/// with one existential-free head atom in a run without provenance or
/// EGDs, whose rows land in the join's enumeration order (see chase.cc,
/// Round). Both are deterministic.
///
/// A table is segmented into a *frozen base* (rows below `frozen_rows()`,
/// written before the last `MarkFrozen()`) and a *mutable overlay* (rows
/// appended since). Insertion is append-only, so freezing is purely a
/// watermark — it never copies. Snapshots share whole tables through
/// `Instance`'s copy-on-write handles; the watermark records where the
/// shared base ends when an update path appends. The sealed segments of
/// the chain are additionally shared *between* cloned tables (immutable
/// `shared_ptr<const Segment>`), so a copy-on-write clone re-copies only
/// the rows and levels, the dedup index (one flat array of row ids) and
/// the mutable overlay — the dictionary/postings structures of the
/// frozen base are never duplicated.
///
/// Every hash-keyed probe structure here (the dedup index and the column
/// dictionaries) verifies candidates by full row/term equality before
/// trusting them: a colliding 64-bit key must never alias two rows.
/// `set_hash_mask_for_test` forces total collision so tests keep that
/// verification load-bearing.
class FactTable {
 public:
  explicit FactTable(size_t arity)
      : arity_(arity), distinct_(arity, 0), overlay_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return levels_.size(); }

  /// Inserts a ground row. Returns true if the row was new. If the row
  /// already exists its level is lowered to `level` when smaller.
  bool Insert(const Term* row, uint32_t level);

  bool Contains(const Term* row) const { return FindRow(row) >= 0; }

  /// Pointer to the `arity()` terms of row `i`.
  const Term* Row(uint32_t i) const { return data_.data() + i * arity_; }
  uint32_t Level(uint32_t i) const { return levels_[i]; }

  /// Marks every current row as part of the frozen base segment.
  void MarkFrozen() { frozen_rows_ = static_cast<uint32_t>(size()); }
  /// Rows below this index belong to the frozen base segment; rows at or
  /// above it are the mutable overlay appended since the last freeze.
  uint32_t frozen_rows() const { return frozen_rows_; }

  /// Row indexes whose position `pos` holds exactly term `t`, ascending.
  /// Materializes a fresh vector (rows gathered across segments); hot
  /// paths should prefer `ProbeRef`/`ProbeCount`.
  std::vector<uint32_t> Probe(size_t pos, Term t) const;

  /// Zero-copy variant: a pointer to the (verified) row list when the
  /// term lives entirely in a single segment's postings with no offset
  /// (i.e. the first segment). nullptr means "materialize via Probe".
  const std::vector<uint32_t>* ProbeRef(size_t pos, Term t) const;

  /// Number of rows `Probe(pos, t)` would return, without materializing.
  size_t ProbeCount(size_t pos, Term t) const;

  /// Number of distinct terms at position `pos`, maintained incrementally
  /// on insert. Feeds the cost model's join-selectivity estimates and the
  /// vectorized executor's batch-build heuristic.
  size_t DistinctAt(size_t pos) const {
    return pos < distinct_.size() ? distinct_[pos] : 0;
  }

  /// Segment chain, for the vectorized join executor: sealed segments in
  /// base order, then the mutable overlay (always last, may be empty).
  size_t NumSegments() const { return sealed_.size() + 1; }
  struct SegmentView {
    const Segment* segment;
    uint32_t base;  ///< global row index of the segment's first row
  };
  SegmentView SegmentAt(size_t k) const {
    return k < sealed_.size()
               ? SegmentView{sealed_[k].get(), sealed_base_[k]}
               : SegmentView{&overlay_, overlay_base_};
  }

  /// Seals the mutable overlay into the shared segment chain (no-op when
  /// the overlay is empty). Called by `Instance::Freeze` on unshared
  /// tables only: sealed segments are immutable and may be read
  /// concurrently by snapshot holders, so a shared table must never
  /// restructure its chain.
  void SealOverlay();

  /// Capacity-based estimate of heap bytes held by this table (rows,
  /// levels, dedup index, and the column segments). Feeds the execution
  /// budget's memory high-water accounting. Sealed segments shared with a
  /// cloned table still count in full here (the estimate is per-view).
  uint64_t MemoryEstimateBytes() const;

  /// Test-only: masks every hash key (dedup rows, column dictionary terms,
  /// and the join executor's batch hash index over this table) so
  /// distinct keys collide; mask 0 forces every key into one probe chain.
  /// Call on an empty table.
  void set_hash_mask_for_test(uint64_t mask);
  /// The mask `set_hash_mask_for_test` set (all ones otherwise).
  uint64_t hash_mask() const { return hash_mask_; }

 private:
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  int64_t FindRow(const Term* row) const;
  size_t HashRow(const Term* row) const;
  /// Fibonacci-hashed start of `row`'s probe chain in the dedup index.
  size_t HomeSlot(const Term* row) const;
  /// The dedup-index slot holding `row`, or the empty slot where its
  /// probe chain ends. Pre: the index is non-empty.
  size_t DedupSlot(const Term* row) const;
  /// Rebuilds the dedup index over every row at `capacity` slots.
  void RehashDedup(size_t capacity);
  /// True when `t` occurs at position `pos` of any sealed segment.
  bool InSealedDict(size_t pos, Term t) const;

  size_t arity_;
  std::vector<Term> data_;        // flattened rows
  std::vector<uint32_t> levels_;  // per-row derivation level
  // Dedup index: row ids by open addressing — power-of-two capacity,
  // load <= 1/2, linear probing.
  std::vector<uint32_t> dedup_;
  int dedup_shift_ = 64;  // 64 - log2(dedup_.size())
  std::vector<size_t> distinct_;  // per-position distinct terms
  // Sealed immutable segments (shared across CoW clones), then the
  // private mutable overlay.
  std::vector<std::shared_ptr<const Segment>> sealed_;
  std::vector<uint32_t> sealed_base_;  // global base row of sealed_[k]
  Segment overlay_;
  uint32_t overlay_base_ = 0;  // global base row of the overlay
  uint32_t frozen_rows_ = 0;   // base/overlay watermark (see MarkFrozen)
  uint64_t hash_mask_ = ~0ull;
  std::vector<uint8_t> fresh_scratch_;  // per-insert new-term flags
};

/// Per-predicate statistics of one table: row count and per-position
/// distinct-term counts. Order-independent aggregates, so two instances
/// holding the same fact multiset (e.g. an incremental session and a
/// from-scratch rebuild) report identical statistics.
struct TableStatistics {
  uint64_t rows = 0;
  std::vector<uint64_t> distinct;  ///< one entry per position
};

/// Snapshot statistics of a whole instance, collected once per snapshot
/// by the holders of long-lived instances (PreparedContext) and consumed
/// by `analysis::CostModel`.
struct InstanceStatistics {
  std::unordered_map<uint32_t, TableStatistics> tables;
  uint64_t total_facts = 0;
  uint64_t max_rows = 0;  ///< largest single table
};

/// A (possibly null-containing) Datalog± instance: fact tables keyed by
/// predicate id, sharing a `Vocabulary`. This is what the chase extends
/// and what conjunctive queries are evaluated against.
///
/// Tables are held through copy-on-write handles: copying an `Instance`
/// is O(#predicates) and *shares* every table with the source; the first
/// mutation of a table through either copy clones just that table. A
/// copy therefore acts as a cheap read-only snapshot — this is what lets
/// `PreparedContext::ApplyUpdate` hand out a new session that shares all
/// unchanged tables with its predecessor.
///
/// Every mutation bumps a generation counter, so resume state captured
/// against one generation (`ChaseFrontier`) can detect that the instance
/// has since been touched.
class Instance {
 public:
  explicit Instance(std::shared_ptr<Vocabulary> vocab)
      : vocab_(std::move(vocab)) {}

  /// An instance holding exactly `program`'s extensional facts (level 0).
  static Instance FromProgram(const Program& program);

  const std::shared_ptr<Vocabulary>& vocab() const { return vocab_; }

  /// Adds a ground fact at `level`; returns true if new.
  bool AddFact(const Atom& fact, uint32_t level);

  bool Contains(const Atom& fact) const;

  /// nullptr when the predicate has no facts yet.
  const FactTable* Table(uint32_t pred) const;
  /// A mutable handle to the predicate's table, cloning it first when it
  /// is shared with a snapshot (copy-on-write). Bumps the generation.
  FactTable* MutableTable(uint32_t pred, size_t arity);

  /// Predicate ids having at least one fact.
  std::vector<uint32_t> Predicates() const;

  size_t TotalFacts() const;
  size_t CountFacts(uint32_t pred) const;

  /// Row counts and per-position distinct counts of every table, by
  /// value. Cheap (O(#tables × arity), reading the incrementally
  /// maintained distinct counters); the instance itself caches nothing,
  /// so concurrent snapshot readers stay race-free — callers holding a
  /// snapshot collect once and reuse.
  InstanceStatistics CollectStatistics() const;

  /// Sum of the tables' MemoryEstimateBytes. Tables shared with another
  /// instance still count in full here (the estimate is per-view).
  uint64_t MemoryEstimateBytes() const;

  /// Monotonically increasing mutation counter: bumped by every AddFact /
  /// MutableTable / Load*. Two reads returning the same value bracket a
  /// mutation-free window.
  uint64_t generation() const { return generation_; }

  /// Marks every table's current rows as the frozen base segment (see
  /// FactTable::MarkFrozen). Purely a watermark; no copying. Tables not
  /// shared with any snapshot additionally seal their mutable overlay
  /// into the immutable segment chain, so future copy-on-write clones
  /// share the frozen base's probe structures (shared tables are left
  /// untouched — concurrent snapshot readers may be probing their
  /// segments).
  void Freeze();

  /// Raises the generation counter to at least `floor + 1`. Used when an
  /// instance is rebuilt from scratch (EGD canonicalization) to keep the
  /// counter monotone relative to its predecessor, so a frontier captured
  /// against the old object can never collide with the new one.
  void EnsureGenerationAbove(uint64_t floor) {
    if (generation_ <= floor) generation_ = floor + 1;
  }

  /// A cheap structure-sharing snapshot (identical to the copy
  /// constructor; named for intent at call sites).
  Instance Snapshot() const { return *this; }

  /// True when this instance and `other` hold the *same* table object
  /// for `pred` (structure sharing, not equality of contents).
  bool SharesTableWith(const Instance& other, uint32_t pred) const;

  /// All facts of `pred` as atoms, in row order — i.e. first-insertion
  /// order, which EGD canonicalization rebuilds and level updates never
  /// permute. This order is part of the contract (asserted by
  /// instance_test): the differential harnesses and the first-derived
  /// ordering of CqEvaluator::Answers both key off row order being a
  /// deterministic function of the insertion sequence. It is not sorted:
  /// chased tables follow the chase's apply order (see FactTable).
  std::vector<Atom> Facts(uint32_t pred) const;

  /// Loads every row of `rel` as facts of predicate `rel.name()`.
  Status LoadRelation(const Relation& rel);

  /// Loads every relation of `db`.
  Status LoadDatabase(const Database& db);

  /// Exports predicate `pred` as a `Relation` named `name` with the given
  /// attribute names (defaults a0..aN-1). Labeled nulls are rendered as
  /// their display string when `keep_nulls`, otherwise rows containing
  /// nulls are dropped (certain-answer semantics).
  Result<Relation> ExportRelation(uint32_t pred, const std::string& name,
                                  std::vector<std::string> attr_names,
                                  bool keep_nulls) const;

  /// Deterministic listing `P(a, b). ...` sorted by predicate then row.
  std::string ToString() const;

  /// Like ToString, but labeled nulls are renumbered canonically (by
  /// first appearance in the sorted listing) before rendering — two
  /// instances equal up to a renaming of nulls produce the same string.
  /// An incremental chase extension and a from-scratch re-chase derive
  /// the same facts but may mint nulls in a different order; this is the
  /// comparison the differential harness uses for null-creating
  /// programs. Canonical whenever facts are distinguishable modulo null
  /// identity (automorphic null groups may tie-break differently).
  std::string ToCanonicalString() const;

 private:
  FactTable* EnsureOwnedTable(uint32_t pred, size_t arity);

  std::shared_ptr<Vocabulary> vocab_;
  std::unordered_map<uint32_t, std::shared_ptr<FactTable>> tables_;
  uint64_t generation_ = 0;
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_INSTANCE_H_
