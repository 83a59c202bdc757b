#include "base/json.h"

#include <gtest/gtest.h>

#include "quality/assessor.h"
#include "scenarios/hospital.h"

namespace mdqa {
namespace {

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("mdqa");
  w.Key("version").Number(int64_t{1});
  w.Key("ratio").Number(0.5);
  w.Key("ok").Bool(true);
  w.Key("none").Null();
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"name\":\"mdqa\",\"version\":1,\"ratio\":0.5,\"ok\":true,"
            "\"none\":null}");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows").BeginArray();
  w.BeginArray().String("a").Number(int64_t{2}).EndArray();
  w.BeginArray().EndArray();
  w.EndArray();
  w.Key("meta").BeginObject();
  w.Key("empty").BeginObject().EndObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"rows\":[[\"a\",2],[]],\"meta\":{\"empty\":{}}}");
}

TEST(JsonWriter, TopLevelArray) {
  JsonWriter w;
  w.BeginArray().Number(int64_t{1}).Number(int64_t{2}).EndArray();
  EXPECT_EQ(w.TakeString(), "[1,2]");
}

TEST(JsonWriter, EscapesKeys) {
  JsonWriter w;
  w.BeginObject();
  w.Key("we\"ird").String("v");
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\"we\\\"ird\":\"v\"}");
}

TEST(QualityJson, MeasuresExport) {
  quality::QualityMeasures m;
  m.relation = "Measurements";
  m.original_size = 6;
  m.quality_size = 2;
  m.common = 2;
  m.precision = 1.0 / 3.0;
  m.recall = 1.0;
  m.f1 = 0.5;
  std::string json = m.ToJson();
  EXPECT_NE(json.find("\"relation\":\"Measurements\""), std::string::npos);
  EXPECT_NE(json.find("\"original_size\":6"), std::string::npos);
  EXPECT_NE(json.find("\"f1\":0.5"), std::string::npos);
}

TEST(QualityJson, FullReportExport) {
  auto context =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  ASSERT_TRUE(context.ok());
  quality::Assessor assessor(&*context);
  auto report = assessor.Assess();
  ASSERT_TRUE(report.ok()) << report.status();
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"referential_check\":\"OK\""), std::string::npos);
  EXPECT_NE(json.find("\"overall_precision\":0.333333333333"),
            std::string::npos);
  EXPECT_NE(json.find("\"dirty_tuples\":[["), std::string::npos);
  EXPECT_NE(json.find("Sep/7-12:15"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e1")->AsNumber(), -125.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
  EXPECT_TRUE(JsonValue::Parse("  42  ")->is_number());
}

TEST(JsonParse, StringEscapes) {
  auto v = JsonValue::Parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->AsString(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, Navigation) {
  auto v = JsonValue::Parse(
      "{\"xs\": [1, 2, 3], \"o\": {\"k\": \"v\"}, \"n\": null}");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->Members().size(), 3u);
  ASSERT_NE(v->Find("xs"), nullptr);
  ASSERT_EQ(v->Find("xs")->Items().size(), 3u);
  EXPECT_DOUBLE_EQ(v->Find("xs")->Items()[1].AsNumber(), 2.0);
  EXPECT_EQ(v->Find("o")->Find("k")->AsString(), "v");
  EXPECT_TRUE(v->Find("n")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
  // Wrong-type accessors return defaults rather than asserting.
  EXPECT_EQ(v->Find("xs")->AsNumber(), 0.0);
  EXPECT_EQ(v->AsString(), "");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("tricky \"quote\" \\ and \x01 control");
  w.Key("values");
  w.BeginArray();
  w.Number(1.5);
  w.Number(static_cast<int64_t>(-3));
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  auto v = JsonValue::Parse(w.TakeString());
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->Find("name")->AsString(),
            "tricky \"quote\" \\ and \x01 control");
  const auto& items = v->Find("values")->Items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_DOUBLE_EQ(items[0].AsNumber(), 1.5);
  EXPECT_DOUBLE_EQ(items[1].AsNumber(), -3.0);
  EXPECT_TRUE(items[2].AsBool());
  EXPECT_TRUE(items[3].is_null());
}

TEST(JsonParse, Errors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1").ok());        // unclosed
  EXPECT_FALSE(JsonValue::Parse("[1, 2,]").ok());          // trailing comma
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());              // trailing input
  EXPECT_FALSE(JsonValue::Parse("{a: 1}").ok());           // unquoted key
  EXPECT_FALSE(JsonValue::Parse("\"\\u12\"").ok());        // short \u
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonParse, DepthLimitTripsCleanly) {
  // A pathological `[[[[…]]]]` body must trip the cap with a clean
  // kInvalidArgument, not convert input length into C++ stack depth.
  const std::string deep(100000, '[');
  auto v = JsonValue::Parse(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v.status().message().find("nesting"), std::string::npos);

  // Same for object nesting, and for a custom (tight) limit.
  JsonLimits tight;
  tight.max_depth = 3;
  EXPECT_TRUE(JsonValue::Parse("[[[1]]]", tight).ok());
  auto over = JsonValue::Parse("[[[[1]]]]", tight);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  auto obj = JsonValue::Parse("{\"a\":{\"b\":{\"c\":{\"d\":1}}}}", tight);
  EXPECT_FALSE(obj.ok());
}

TEST(JsonParse, DepthLimitBoundaryExact) {
  // A scalar wrapped in exactly max_depth arrays sits at depth max_depth
  // and passes; one more wrapper trips.
  JsonLimits limits;
  std::string at_limit = "1";
  for (size_t i = 0; i < limits.max_depth; ++i) {
    at_limit = "[" + at_limit + "]";
  }
  EXPECT_TRUE(JsonValue::Parse(at_limit).ok());
  EXPECT_FALSE(JsonValue::Parse("[" + at_limit + "]").ok());
}

TEST(JsonParse, SizeCapRejectsOversizedInputUpFront) {
  JsonLimits tiny;
  tiny.max_bytes = 16;
  EXPECT_TRUE(JsonValue::Parse("{\"k\": 1}", tiny).ok());
  auto v = JsonValue::Parse("{\"key\": \"0123456789abcdef\"}", tiny);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(v.status().message().find("exceeds"), std::string::npos);
}

TEST(JsonParse, DuplicateKeysPreservedFindReturnsFirst) {
  auto v = JsonValue::Parse("{\"k\": 1, \"k\": 2}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Members().size(), 2u);
  EXPECT_DOUBLE_EQ(v->Find("k")->AsNumber(), 1.0);
}

}  // namespace
}  // namespace mdqa
