#ifndef MDQA_DATALOG_COLUMN_H_
#define MDQA_DATALOG_COLUMN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "datalog/term.h"

namespace mdqa::datalog {

/// One position of one storage segment: a dictionary-encoded term column.
/// Every appended term is interned into a segment-local dictionary and the
/// column stores only its 4-byte code, plus a postings list per code (the
/// ascending segment-local rows holding that term). Equality probes and
/// join verification then run on contiguous `uint32_t` code arrays instead
/// of hashed term handles — the VLog-style layout that makes the
/// dimensional-navigation joins of the OMD assessment cheap.
///
/// The encode map is keyed by a *lossy* term hash, so a probe can land in
/// a bucket shared by several distinct terms; `CodeOf` therefore verifies
/// every candidate code against the dictionary term before trusting it —
/// a colliding 64-bit key must never alias two terms (the fact table's
/// dedup index has the same discipline). Tests force total collision through
/// `set_hash_mask_for_test` to keep the verification load-bearing.
class Column {
 public:
  /// Sentinel returned by `CodeOf` when the term is not in the dictionary.
  static constexpr uint32_t kNoCode = 0xffffffffu;

  /// Appends `t` as the next row, interning it into the dictionary.
  /// Returns its code; `*new_code` (when non-null) is set to whether the
  /// term was new to this column's dictionary.
  uint32_t Append(Term t, bool* new_code = nullptr);

  /// Rows appended so far.
  size_t size() const { return codes_.size(); }

  uint32_t CodeAt(uint32_t row) const { return codes_[row]; }
  Term TermAt(uint32_t row) const { return dict_[codes_[row]]; }
  Term TermOfCode(uint32_t code) const { return dict_[code]; }

  /// Distinct terms in this column (the dictionary size).
  size_t DistinctTerms() const { return dict_.size(); }

  /// Dictionary code of `t`, or kNoCode when absent. Hash-bucket
  /// candidates are verified against the dictionary (see class comment).
  uint32_t CodeOf(Term t) const;

  /// Ascending segment-local rows whose term has `code`.
  const std::vector<uint32_t>& Postings(uint32_t code) const {
    return postings_[code];
  }

  /// Capacity-based heap estimate (codes, dictionary, postings, encode
  /// map) for the execution budget's memory accounting.
  uint64_t MemoryEstimateBytes() const;

  /// Test-only: masks the encode-map hash so distinct terms collide
  /// (mask 0 puts every term in one bucket). Call on an empty column —
  /// changing the mask after appends would orphan existing buckets.
  void set_hash_mask_for_test(uint64_t mask) { hash_mask_ = mask; }

 private:
  uint64_t HashTerm(Term t) const { return TermHash{}(t) & hash_mask_; }

  std::vector<uint32_t> codes_;                  // row -> code
  std::vector<Term> dict_;                       // code -> term
  std::vector<std::vector<uint32_t>> postings_;  // code -> rows, ascending
  std::unordered_map<uint64_t, std::vector<uint32_t>> encode_;  // hash->codes
  uint64_t hash_mask_ = ~0ull;
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_COLUMN_H_
