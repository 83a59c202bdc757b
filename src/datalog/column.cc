#include "datalog/column.h"

#include <bit>

namespace mdqa::datalog {

uint32_t Column::Append(Term t, bool* new_code) {
  uint32_t code = CodeOf(t);
  const bool fresh = code == kNoCode;
  if (fresh) {
    code = static_cast<uint32_t>(dict_.size());
    dict_.push_back(t);
    postings_.emplace_back();
    if (2 * dict_.size() > encode_.size()) {
      Rehash(encode_.empty() ? 8 : 2 * encode_.size());  // places `code` too
    } else {
      Place(code);
    }
  }
  postings_[code].push_back(static_cast<uint32_t>(codes_.size()));
  codes_.push_back(code);
  if (new_code != nullptr) *new_code = fresh;
  return code;
}

uint32_t Column::CodeOf(Term t) const {
  if (encode_.empty()) return kNoCode;
  const size_t mask = encode_.size() - 1;
  // The chain may hold codes of several distinct terms (lossy hash);
  // only a dictionary-verified candidate counts.
  for (size_t slot = HomeSlot(t); encode_[slot] != kNoCode;
       slot = (slot + 1) & mask) {
    if (dict_[encode_[slot]] == t) return encode_[slot];
  }
  return kNoCode;
}

void Column::Rehash(size_t capacity) {
  encode_.assign(capacity, kNoCode);
  encode_shift_ = 64 - std::countr_zero(capacity);
  for (uint32_t code = 0; code < dict_.size(); ++code) Place(code);
}

void Column::Place(uint32_t code) {
  const size_t mask = encode_.size() - 1;
  size_t slot = HomeSlot(dict_[code]);
  while (encode_[slot] != kNoCode) slot = (slot + 1) & mask;
  encode_[slot] = code;
}

uint64_t Column::MemoryEstimateBytes() const {
  uint64_t bytes = codes_.capacity() * sizeof(uint32_t) +
                   dict_.capacity() * sizeof(Term) +
                   encode_.capacity() * sizeof(uint32_t);
  bytes += postings_.capacity() * sizeof(std::vector<uint32_t>);
  for (const auto& rows : postings_) {
    bytes += rows.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace mdqa::datalog
