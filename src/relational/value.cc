#include "relational/value.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <functional>

#include "base/string_util.h"

namespace mdqa {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Value Value::FromText(std::string_view text) {
  // A numeral whose value does not fit int64_t or double is not a number:
  // like every other non-numeric field, it stays the string of its text.
  if (IsInteger(text)) {
    // std::from_chars does not accept a leading '+'.
    std::string_view digits =
        text.front() == '+' ? text.substr(1) : text;
    int64_t v = 0;
    const std::from_chars_result r =
        std::from_chars(digits.data(), digits.data() + digits.size(), v);
    return r.ec == std::errc() ? Int(v) : Str(text);
  }
  if (IsDouble(text)) {
    const std::string buf(text);
    errno = 0;
    const double v = std::strtod(buf.c_str(), nullptr);
    return errno == ERANGE ? Str(text) : Real(v);  // overflow or underflow
  }
  return Str(text);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      // The bytes of printf's "%g" (six significant digits, C locale),
      // without parsing a format string per value.
      char buf[32];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), AsDouble(),
                        std::chars_format::general, 6);
      return std::string(buf, r.ptr);
    }
    case ValueType::kString:
      return AsString();
  }
  return "";
}

std::string Value::ToLiteral() const {
  if (!is_string()) return ToString();
  std::string out = "\"";
  for (char c : AsString()) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(type());
  switch (type()) {
    case ValueType::kInt64:
      HashCombine(&seed, std::hash<int64_t>{}(AsInt()));
      break;
    case ValueType::kDouble:
      HashCombine(&seed, std::hash<double>{}(AsDouble()));
      break;
    case ValueType::kString:
      HashCombine(&seed, std::hash<std::string>{}(AsString()));
      break;
  }
  return seed;
}

uint32_t ValuePool::Intern(const Value& v) {
  auto it = ids_.find(v);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(values_.size());
  values_.push_back(v);
  ids_.emplace(v, id);
  return id;
}

uint32_t ValuePool::Find(const Value& v) const {
  auto it = ids_.find(v);
  return it == ids_.end() ? kNotFound : it->second;
}

}  // namespace mdqa
