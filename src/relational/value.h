#ifndef MDQA_RELATIONAL_VALUE_H_
#define MDQA_RELATIONAL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "base/intern.h"

namespace mdqa {

/// Runtime type of a `Value`.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

const char* ValueTypeToString(ValueType t);

/// A typed constant: int64, double, or string. Values are the vocabulary of
/// the relational layer and (via `ValuePool`) the constant domain of the
/// Datalog± layer. Ordering is total: values of the same type compare
/// naturally (strings lexicographically); across types the type tag decides
/// (int64 < double < string), which keeps sorting deterministic.
class Value {
 public:
  /// Default-constructs the int64 0 (needed for container resizing).
  Value() : rep_(int64_t{0}) {}

  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Real(double v) { return Value(Rep(v)); }
  static Value Str(std::string_view v) { return Value(Rep(std::string(v))); }

  /// Parses `text` into the most specific type: integer, then double,
  /// then string. A numeral out of int64_t/double range (strtod reports
  /// overflow or underflow) is kept as the string of its exact text.
  static Value FromText(std::string_view text);

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_int() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Numeric view: int64 widened to double; only valid for numeric values.
  double AsNumber() const {
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// Unquoted display form, e.g. `42`, `37.5`, `Tom Waits`.
  std::string ToString() const;

  /// Parser-round-trippable form: strings are double-quoted with escapes.
  std::string ToLiteral() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.rep_ < b.rep_;
  }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }

  size_t Hash() const;

 private:
  using Rep = std::variant<int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Interns `Value`s into dense uint32 ids so the Datalog± engine can
/// manipulate constants as integers. Ids are first-seen dense.
class ValuePool {
 public:
  uint32_t Intern(const Value& v);
  uint32_t InternStr(std::string_view s) { return Intern(Value::Str(s)); }

  /// Returns the id of `v`, or `kNotFound` if never interned.
  uint32_t Find(const Value& v) const;

  const Value& Get(uint32_t id) const { return values_[id]; }
  size_t size() const { return values_.size(); }

  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

 private:
  std::vector<Value> values_;
  std::unordered_map<Value, uint32_t, ValueHash> ids_;
};

}  // namespace mdqa

#endif  // MDQA_RELATIONAL_VALUE_H_
