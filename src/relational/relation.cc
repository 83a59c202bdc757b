#include "relational/relation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

namespace mdqa {

namespace {

// Fibonacci-hashed start of `row`'s probe chain in an index of
// 2^(64 - shift) slots.
size_t HomeSlot(const Tuple& row, int shift) {
  return (TupleHash{}(row) * 0x9e3779b97f4a7c15ull) >> shift;
}

}  // namespace

size_t Relation::IndexSlot(const Tuple& row) const {
  const size_t mask = index_.size() - 1;
  size_t slot = HomeSlot(row, index_shift_);
  while (index_[slot] != 0 && rows_[index_[slot] - 1] != row) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Relation::Rehash(size_t capacity) {
  index_.assign(capacity, 0);
  index_shift_ = 64 - std::countr_zero(capacity);
  // Rows are distinct, so each takes the first empty slot of its chain.
  for (size_t r = 0; r < rows_.size(); ++r) {
    size_t slot = HomeSlot(rows_[r], index_shift_);
    while (index_[slot] != 0) slot = (slot + 1) & (capacity - 1);
    index_[slot] = static_cast<uint32_t>(r + 1);
  }
}

Status Relation::Insert(Tuple row) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into " + schema_.name() + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!AttrTypeAdmits(schema_.attribute(i).type, row[i].type())) {
      return Status::InvalidArgument(
          "type mismatch at attribute '" + schema_.attribute(i).name +
          "' of " + schema_.name() + ": value " + row[i].ToLiteral());
    }
  }
  if (index_.empty()) Rehash(8);
  const size_t slot = IndexSlot(row);
  if (index_[slot] != 0) return Status::Ok();  // duplicate: set semantics
  if (rows_.size() >= std::numeric_limits<uint32_t>::max()) {
    return Status::ResourceExhausted("relation " + schema_.name() +
                                     " is full: " + std::to_string(size()) +
                                     " rows");
  }
  rows_.push_back(std::move(row));
  if (2 * rows_.size() > index_.size()) {
    Rehash(2 * index_.size());  // places the new row too
  } else {
    index_[slot] = static_cast<uint32_t>(rows_.size());
  }
  return Status::Ok();
}

Status Relation::InsertText(const std::vector<std::string>& fields) {
  Tuple row;
  row.reserve(fields.size());
  for (const std::string& f : fields) row.push_back(Value::FromText(f));
  return Insert(std::move(row));
}

Relation Relation::Select(
    const std::function<bool(const Tuple&)>& pred) const {
  Relation out(schema_);
  for (const Tuple& t : rows_) {
    if (pred(t)) {
      // Re-insert is cheap and keeps the dedup index consistent.
      out.Insert(t);
    }
  }
  return out;
}

Result<Relation> Relation::Project(const std::string& new_name,
                                   const std::vector<int>& cols) const {
  std::vector<Attribute> attrs;
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= schema_.arity()) {
      return Status::InvalidArgument("projection index out of range for " +
                                     schema_.name());
    }
    attrs.push_back(schema_.attribute(c));
  }
  MDQA_ASSIGN_OR_RETURN(RelationSchema s,
                        RelationSchema::Create(new_name, std::move(attrs)));
  Relation out(std::move(s));
  for (const Tuple& t : rows_) {
    Tuple p;
    p.reserve(cols.size());
    for (int c : cols) p.push_back(t[c]);
    MDQA_RETURN_IF_ERROR(out.Insert(std::move(p)));
  }
  return out;
}

Result<Relation> Relation::Intersect(const Relation& other) const {
  if (other.arity() != arity()) {
    return Status::InvalidArgument("intersect arity mismatch: " + name() +
                                   " vs " + other.name());
  }
  Relation out(schema_);
  for (const Tuple& t : rows_) {
    if (other.Contains(t)) MDQA_RETURN_IF_ERROR(out.Insert(t));
  }
  return out;
}

Result<Relation> Relation::Minus(const Relation& other) const {
  if (other.arity() != arity()) {
    return Status::InvalidArgument("minus arity mismatch: " + name() +
                                   " vs " + other.name());
  }
  Relation out(schema_);
  for (const Tuple& t : rows_) {
    if (!other.Contains(t)) MDQA_RETURN_IF_ERROR(out.Insert(t));
  }
  return out;
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> sorted;
  sorted.reserve(rows_.size());
  for (const Tuple* t : SortedRowPointers()) sorted.push_back(*t);
  return sorted;
}

std::vector<const Tuple*> Relation::SortedRowPointers() const {
  std::vector<const Tuple*> sorted;
  sorted.reserve(rows_.size());
  for (const Tuple& t : rows_) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const Tuple* a, const Tuple* b) { return *a < *b; });
  return sorted;
}

std::string Relation::ToTable() const {
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  header.reserve(arity());
  for (const Attribute& a : schema_.attributes()) header.push_back(a.name);
  cells.push_back(header);
  for (const Tuple* t : SortedRowPointers()) {
    std::vector<std::string> row;
    row.reserve(t->size());
    for (const Value& v : *t) row.push_back(v.ToString());
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(arity(), 0);
  for (const auto& row : cells) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream os;
  os << schema_.name() << " (" << size() << " rows)\n";
  for (size_t r = 0; r < cells.size(); ++r) {
    os << "  |";
    for (size_t i = 0; i < cells[r].size(); ++i) {
      os << ' ' << cells[r][i]
         << std::string(widths[i] - cells[r][i].size(), ' ') << " |";
    }
    os << '\n';
    if (r == 0) {
      os << "  |";
      for (size_t i = 0; i < widths.size(); ++i) {
        os << std::string(widths[i] + 2, '-') << "|";
      }
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace mdqa
