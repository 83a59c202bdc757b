#ifndef MDQA_RELATIONAL_RELATION_H_
#define MDQA_RELATIONAL_RELATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace mdqa {

/// A row of a relation.
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t seed = t.size();
    for (const Value& v : t) HashCombine(&seed, v.Hash());
    return seed;
  }
};

/// An in-memory set-semantics relation: a schema plus deduplicated rows in
/// insertion order. This is the user-facing table type (original instances,
/// quality versions, query answers); the Datalog± engine has its own
/// interned fact store (datalog/instance.h) and bridges to/from `Relation`.
///
/// Each row is stored once, in `rows()`. Set membership goes through a
/// flat open-addressing index of row ids with the layout of the fact
/// table's dedup index (datalog/instance.h), so inserting allocates no
/// hash node and copying a relation copies the rows plus one flat array.
class Relation {
 public:
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t arity() const { return schema_.arity(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const std::vector<Tuple>& rows() const { return rows_; }
  const Tuple& row(size_t i) const { return rows_[i]; }

  /// Inserts a row after checking arity and attribute types. Duplicate rows
  /// are ignored (set semantics); returns OK either way. A new row past
  /// `UINT32_MAX` rows is refused with kResourceExhausted.
  Status Insert(Tuple row);

  /// Inserts a row built from mixed literals via `Value::FromText`.
  Status InsertText(const std::vector<std::string>& fields);

  bool Contains(const Tuple& row) const {
    return !index_.empty() && index_[IndexSlot(row)] != 0;
  }

  /// Rows satisfying `pred`, as a new relation with the same schema.
  Relation Select(const std::function<bool(const Tuple&)>& pred) const;

  /// Projects onto the attribute positions `cols` (new schema named
  /// `new_name`). Duplicate result rows are collapsed.
  Result<Relation> Project(const std::string& new_name,
                           const std::vector<int>& cols) const;

  /// Set operations; schemas must have equal arity.
  Result<Relation> Intersect(const Relation& other) const;
  Result<Relation> Minus(const Relation& other) const;

  /// Rows sorted lexicographically (for deterministic output).
  std::vector<Tuple> SortedRows() const;

  /// The same order as `SortedRows`, as pointers into `rows()`: no row is
  /// copied. Valid until the relation is next modified.
  std::vector<const Tuple*> SortedRowPointers() const;

  /// Renders an aligned ASCII table like the ones in the paper.
  std::string ToTable() const;

 private:
  /// The index slot holding `row`'s id, or the empty slot where its probe
  /// chain ends. Pre: the index is non-empty.
  size_t IndexSlot(const Tuple& row) const;
  /// Rebuilds the index over every row at `capacity` slots.
  void Rehash(size_t capacity);

  RelationSchema schema_;
  std::vector<Tuple> rows_;
  // Row index: row id + 1 by open addressing, 0 marking an empty slot —
  // power-of-two capacity, load <= 1/2, linear probing from a
  // Fibonacci-hashed home slot. Slots are keyed by a lossy hash, so every
  // candidate is verified against `rows_`.
  std::vector<uint32_t> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
};

}  // namespace mdqa

#endif  // MDQA_RELATIONAL_RELATION_H_
