#include "relational/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace mdqa {
namespace {

TEST(Csv, HeaderAndTypedFields) {
  auto rel = ParseCsv("Time,Patient,Value\nSep/5-12:10,Tom Waits,38.2\n"
                      "Sep/6-11:50,Tom Waits,37\n",
                      "Measurements");
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->name(), "Measurements");
  EXPECT_EQ(rel->arity(), 3u);
  EXPECT_EQ(rel->schema().attribute(1).name, "Patient");
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->Contains({Value::Str("Sep/5-12:10"),
                             Value::Str("Tom Waits"), Value::Real(38.2)}));
  EXPECT_TRUE(rel->Contains({Value::Str("Sep/6-11:50"),
                             Value::Str("Tom Waits"), Value::Int(37)}));
}

// Type inference keeps a numeral that does not fit int64_t/double as the
// string of its text instead of reading 0 or throwing.
TEST(Csv, OutOfRangeNumeralsStayText) {
  auto rel = ParseCsv("Id,Reading\n99999999999999999999,1e999\n7,2.5\n", "R");
  ASSERT_TRUE(rel.ok()) << rel.status();
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->Contains(
      {Value::Str("99999999999999999999"), Value::Str("1e999")}));
  EXPECT_TRUE(rel->Contains({Value::Int(7), Value::Real(2.5)}));
}

TEST(Csv, NoHeaderGeneratesAttributeNames) {
  CsvOptions options;
  options.has_header = false;
  auto rel = ParseCsv("1,2\n3,4\n", "R", options);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().attribute(0).name, "a0");
  EXPECT_EQ(rel->size(), 2u);
}

TEST(Csv, QuotedFieldsWithSeparatorsAndEscapes) {
  auto rel = ParseCsv("name,notes\n\"Waits, Tom\",\"said \"\"hi\"\"\"\n",
                      "People");
  ASSERT_TRUE(rel.ok()) << rel.status();
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->row(0)[0], Value::Str("Waits, Tom"));
  EXPECT_EQ(rel->row(0)[1], Value::Str("said \"hi\""));
}

TEST(Csv, CrlfAndBlankLines) {
  auto rel = ParseCsv("a,b\r\n\r\n1,2\r\n\n3,4\n", "R");
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->size(), 2u);
}

TEST(Csv, TypeInferenceToggle) {
  CsvOptions raw;
  raw.infer_types = false;
  auto rel = ParseCsv("x\n42\n", "R", raw);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->row(0)[0].is_string());
}

TEST(Csv, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  auto rel = ParseCsv("a;b\n1;2\n", "R", options);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->arity(), 2u);
}

TEST(Csv, RaggedRowRejected) {
  auto rel = ParseCsv("a,b\n1,2,3\n", "R");
  ASSERT_FALSE(rel.ok());
  EXPECT_NE(rel.status().message().find("fields"), std::string::npos);
}

TEST(Csv, UnterminatedQuoteRejected) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n", "R").ok());
}

TEST(Csv, EmptyInputRejected) {
  EXPECT_FALSE(ParseCsv("", "R").ok());
  EXPECT_FALSE(ParseCsv("\n\n", "R").ok());
}

TEST(Csv, ReadFileAndStemNaming) {
  const char* path = "/tmp/mdqa_csv_test_measurements.csv";
  {
    std::ofstream out(path);
    out << "w,p\nW1,Tom\n";
  }
  auto named = ReadCsvFile(path, "Explicit");
  ASSERT_TRUE(named.ok()) << named.status();
  EXPECT_EQ(named->name(), "Explicit");
  auto stem = ReadCsvFile(path);
  ASSERT_TRUE(stem.ok());
  EXPECT_EQ(stem->name(), "mdqa_csv_test_measurements");
  std::remove(path);
}

TEST(Csv, MissingFile) {
  auto rel = ReadCsvFile("/nonexistent/nope.csv");
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mdqa
