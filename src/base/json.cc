#include "base/json.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mdqa {

namespace {

// Appends `s` JSON-escaped to `*out`.
void AppendEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

// stack_ encoding: value >= 0 -> array with that many elements so far;
// value < 0 -> object with (-value - 1) elements, key pending iff the
// kKeyPending bit pattern is used. Keep it simple with two parallel
// notions folded into one int: objects store -(2*count + (pending?1:0)) - 1.
namespace {
constexpr int64_t EncodeObject(int64_t count, bool pending) {
  return -(2 * count + (pending ? 1 : 0)) - 1;
}
constexpr bool IsObject(int64_t v) { return v < 0; }
constexpr int64_t ObjectCount(int64_t v) { return (-(v + 1)) / 2; }
constexpr bool KeyPending(int64_t v) { return ((-(v + 1)) % 2) == 1; }
}  // namespace

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;
  int64_t& top = stack_.back();
  if (IsObject(top)) {
    assert(KeyPending(top) && "object value requires a preceding Key()");
    top = EncodeObject(ObjectCount(top) + 1, false);
  } else {
    if (top > 0) out_ += ',';
    ++top;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(EncodeObject(0, false));
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty() && IsObject(stack_.back()));
  assert(!KeyPending(stack_.back()) && "dangling Key() at EndObject");
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty() && !IsObject(stack_.back()));
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && IsObject(stack_.back()));
  assert(!KeyPending(stack_.back()) && "two keys in a row");
  int64_t& top = stack_.back();
  if (ObjectCount(top) > 0) out_ += ',';
  top = EncodeObject(ObjectCount(top), true);
  out_ += '"';
  AppendEscaped(key, &out_);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(value, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Number(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

// Recursive-descent JSON reader over a string_view cursor. At namespace
// scope (not anonymous) so the friend declaration in JsonValue names it.
class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  Result<JsonValue> ParseDocument() {
    MDQA_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipSpace();
    if (pos_ < text_.size()) {
      return Err("trailing input after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(size_t depth) {
    if (depth > limits_.max_depth) {
      return Err("nesting deeper than " + std::to_string(limits_.max_depth) +
                 " levels");
    }
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    JsonValue v;
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      MDQA_ASSIGN_OR_RETURN(std::string s, ParseString());
      v.kind_ = JsonValue::Kind::kString;
      v.string_ = std::move(s);
      return v;
    }
    if (ConsumeWord("true")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (ConsumeWord("false")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = false;
      return v;
    }
    if (ConsumeWord("null")) {
      v.kind_ = JsonValue::Kind::kNull;
      return v;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    return Err(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseObject(size_t depth) {
    ++pos_;  // '{'
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return v;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      MDQA_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after object key");
      MDQA_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      v.members_.emplace_back(std::move(key), std::move(member));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return Err("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(size_t depth) {
    ++pos_;  // '['
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return v;
    while (true) {
      MDQA_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      v.items_.push_back(std::move(item));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return Err("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err("invalid \\u escape");
            }
            // UTF-8 encode the code point (BMP only — what JsonEscape emits).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("invalid escape sequence");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Err("malformed number '" + token + "'");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = d;
    return v;
  }

  std::string_view text_;
  JsonLimits limits_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text,
                                   const JsonLimits& limits) {
  if (text.size() > limits.max_bytes) {
    return Status::ResourceExhausted(
        "JSON input of " + std::to_string(text.size()) +
        " bytes exceeds the " + std::to_string(limits.max_bytes) +
        "-byte limit");
  }
  JsonParser parser(text, limits);
  return parser.ParseDocument();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace mdqa
