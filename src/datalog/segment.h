#ifndef MDQA_DATALOG_SEGMENT_H_
#define MDQA_DATALOG_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "datalog/column.h"
#include "datalog/term.h"

namespace mdqa::datalog {

/// The postings index of a contiguous run of one table's rows: one
/// dictionary + postings `Column` per position, covering the global rows
/// `[base, base + rows())` of the owning FactTable. A table is a chain of
/// *sealed* segments — immutable, shared by reference between
/// copy-on-write snapshots — followed by exactly one append-only mutable
/// *overlay* segment private to each table view. `Instance::Freeze` seals
/// the overlay into the chain when the table is unshared, so a long-lived
/// base (the chased instance behind a PreparedContext) is served from
/// immutable segments while update sessions append into fresh overlays.
///
/// The flattened term rows and per-row levels stay in the FactTable (the
/// `Row()` pointer contract) and are the only copy of each fact; a
/// segment carries only the dictionaries and postings that the join
/// executor probes.
class Segment {
 public:
  explicit Segment(size_t arity) : columns_(arity) {}

  size_t arity() const { return columns_.size(); }
  uint32_t rows() const { return rows_; }

  const Column& column(size_t pos) const { return columns_[pos]; }

  /// Appends a row (table-level dedup is the caller's job). When
  /// `new_terms` is non-null it must have room for `arity()` flags; flag
  /// `p` is set to whether position `p`'s term was new to this segment's
  /// dictionary.
  void Append(const Term* row, uint8_t* new_terms = nullptr) {
    for (size_t p = 0; p < columns_.size(); ++p) {
      bool fresh = false;
      columns_[p].Append(row[p], &fresh);
      if (new_terms != nullptr) new_terms[p] = fresh ? 1 : 0;
    }
    ++rows_;
  }

  uint64_t MemoryEstimateBytes() const;

  /// Test-only; forwards to every column (call before any append).
  void set_hash_mask_for_test(uint64_t mask);

 private:
  uint32_t rows_ = 0;  // explicit: arity-0 segments have no columns
  std::vector<Column> columns_;
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_SEGMENT_H_
