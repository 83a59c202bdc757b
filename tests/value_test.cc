#include "relational/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace mdqa {
namespace {

TEST(Value, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(Value, Constructors) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
}

TEST(Value, FromTextPrefersMostSpecificType) {
  EXPECT_TRUE(Value::FromText("42").is_int());
  EXPECT_TRUE(Value::FromText("-1").is_int());
  EXPECT_TRUE(Value::FromText("4.5").is_double());
  EXPECT_TRUE(Value::FromText("W1").is_string());
  EXPECT_TRUE(Value::FromText("Sep/5-12:10").is_string());
  EXPECT_TRUE(Value::FromText("").is_string());
}

// A numeral out of int64_t/double range is not a number: it stays the
// string of its exact text, and nothing throws.
TEST(Value, FromTextKeepsOutOfRangeNumeralsAsText) {
  EXPECT_EQ(Value::FromText("9223372036854775807"),
            Value::Int(std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(Value::FromText("-9223372036854775808"),
            Value::Int(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(Value::FromText("9223372036854775808"),
            Value::Str("9223372036854775808"));
  EXPECT_EQ(Value::FromText("-9223372036854775809"),
            Value::Str("-9223372036854775809"));
  EXPECT_EQ(Value::FromText("+9223372036854775808"),
            Value::Str("+9223372036854775808"));
  EXPECT_EQ(Value::FromText("1e999"), Value::Str("1e999"));
  EXPECT_EQ(Value::FromText("-1e999"), Value::Str("-1e999"));
  EXPECT_EQ(Value::FromText("1e-400"), Value::Str("1e-400"));
  const std::string huge = std::string(400, '9') + ".5";
  EXPECT_EQ(Value::FromText(huge), Value::Str(huge));
  EXPECT_EQ(Value::FromText("1e308"), Value::Real(1e308));
}

TEST(Value, AsNumberWidensInt) {
  EXPECT_DOUBLE_EQ(Value::Int(2).AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsNumber(), 2.5);
}

TEST(Value, EqualityIsTypeSensitive) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Real(1.0));  // distinct types
  EXPECT_NE(Value::Str("1"), Value::Int(1));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
}

TEST(Value, OrderingWithinType) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
  EXPECT_LT(Value::Str("Sep/5-11:45"), Value::Str("Sep/5-12:10"));
  EXPECT_LE(Value::Int(2), Value::Int(2));
}

TEST(Value, OrderingAcrossTypesByTag) {
  // int64 < double < string (documented total order).
  EXPECT_LT(Value::Int(999), Value::Real(0.0));
  EXPECT_LT(Value::Real(999.0), Value::Str(""));
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Str("x y").ToString(), "x y");
  EXPECT_EQ(Value::Real(38.2).ToString(), "38.2");
}

TEST(Value, ToLiteralQuotesAndEscapesStrings) {
  EXPECT_EQ(Value::Int(7).ToLiteral(), "7");
  EXPECT_EQ(Value::Str("hi").ToLiteral(), "\"hi\"");
  EXPECT_EQ(Value::Str("a\"b").ToLiteral(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Str("a\\b").ToLiteral(), "\"a\\\\b\"");
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  // Different types with "same" content should not collide (tagged hash).
  EXPECT_NE(Value::Int(0).Hash(), Value::Real(0.0).Hash());
}

TEST(ValuePool, InternDedupes) {
  ValuePool pool;
  uint32_t a = pool.Intern(Value::Str("x"));
  uint32_t b = pool.Intern(Value::Int(1));
  uint32_t a2 = pool.Intern(Value::Str("x"));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Get(a), Value::Str("x"));
}

TEST(ValuePool, FindDoesNotIntern) {
  ValuePool pool;
  EXPECT_EQ(pool.Find(Value::Int(9)), ValuePool::kNotFound);
  EXPECT_EQ(pool.size(), 0u);
  pool.Intern(Value::Int(9));
  EXPECT_EQ(pool.Find(Value::Int(9)), 0u);
}

TEST(ValuePool, TypeDistinguishesEntries) {
  ValuePool pool;
  uint32_t i = pool.Intern(Value::Int(1));
  uint32_t d = pool.Intern(Value::Real(1.0));
  uint32_t s = pool.Intern(Value::Str("1"));
  EXPECT_NE(i, d);
  EXPECT_NE(d, s);
  EXPECT_NE(i, s);
}

}  // namespace
}  // namespace mdqa
