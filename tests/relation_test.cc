#include "relational/relation.h"

#include <gtest/gtest.h>

#include "relational/database.h"

namespace mdqa {
namespace {

RelationSchema MakeSchema(const std::string& name,
                          std::vector<std::string> attrs) {
  return RelationSchema::Create(name, std::move(attrs)).value();
}

TEST(RelationSchema, CreateValidates) {
  EXPECT_FALSE(RelationSchema::Create("", {std::string("a")}).ok());
  EXPECT_FALSE(
      RelationSchema::Create("R", std::vector<std::string>{"a", "a"}).ok());
  EXPECT_FALSE(
      RelationSchema::Create("R", std::vector<std::string>{""}).ok());
  auto ok = RelationSchema::Create("R", std::vector<std::string>{"a", "b"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->arity(), 2u);
  EXPECT_EQ(ok->AttributeIndex("b"), 1);
  EXPECT_EQ(ok->AttributeIndex("zz"), -1);
}

TEST(RelationSchema, TypedAttributesAdmitValues) {
  EXPECT_TRUE(AttrTypeAdmits(AttrType::kAny, ValueType::kString));
  EXPECT_TRUE(AttrTypeAdmits(AttrType::kInt64, ValueType::kInt64));
  EXPECT_FALSE(AttrTypeAdmits(AttrType::kInt64, ValueType::kString));
  // Doubles accept ints (numeric widening), not vice versa.
  EXPECT_TRUE(AttrTypeAdmits(AttrType::kDouble, ValueType::kInt64));
  EXPECT_FALSE(AttrTypeAdmits(AttrType::kInt64, ValueType::kDouble));
  EXPECT_TRUE(AttrTypeAdmits(AttrType::kString, ValueType::kString));
}

TEST(Relation, InsertChecksArity) {
  Relation r(MakeSchema("R", {"a", "b"}));
  EXPECT_TRUE(r.Insert({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(r.Insert({Value::Int(1)}).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, InsertChecksTypes) {
  auto schema = RelationSchema::Create(
      "R", std::vector<Attribute>{{"n", AttrType::kInt64},
                                  {"s", AttrType::kString}});
  ASSERT_TRUE(schema.ok());
  Relation r(std::move(schema).value());
  EXPECT_TRUE(r.Insert({Value::Int(1), Value::Str("x")}).ok());
  Status bad = r.Insert({Value::Str("x"), Value::Str("y")});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST(Relation, SetSemantics) {
  Relation r(MakeSchema("R", {"a"}));
  EXPECT_TRUE(r.Insert({Value::Int(1)}).ok());
  EXPECT_TRUE(r.Insert({Value::Int(1)}).ok());  // duplicate ignored, still OK
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({Value::Int(1)}));
  EXPECT_FALSE(r.Contains({Value::Int(2)}));
}

TEST(Relation, InsertTextParsesFields) {
  Relation r(MakeSchema("R", {"a", "b", "c"}));
  ASSERT_TRUE(r.InsertText({"W1", "42", "37.5"}).ok());
  const Tuple& t = r.row(0);
  EXPECT_TRUE(t[0].is_string());
  EXPECT_TRUE(t[1].is_int());
  EXPECT_TRUE(t[2].is_double());
}

TEST(Relation, Select) {
  Relation r(MakeSchema("R", {"a"}));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(r.Insert({Value::Int(i)}).ok());
  Relation even =
      r.Select([](const Tuple& t) { return t[0].AsInt() % 2 == 0; });
  EXPECT_EQ(even.size(), 3u);
}

TEST(Relation, ProjectCollapsesDuplicates) {
  Relation r(MakeSchema("R", {"a", "b"}));
  ASSERT_TRUE(r.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(r.Insert({Value::Int(2), Value::Str("x")}).ok());
  auto p = r.Project("P", {1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 1u);
  EXPECT_EQ(p->schema().attribute(0).name, "b");
  EXPECT_FALSE(r.Project("P", {5}).ok());
}

TEST(Relation, IntersectAndMinus) {
  Relation a(MakeSchema("A", {"x"}));
  Relation b(MakeSchema("B", {"x"}));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a.Insert({Value::Int(i)}).ok());
  for (int i = 2; i < 6; ++i) ASSERT_TRUE(b.Insert({Value::Int(i)}).ok());
  auto common = a.Intersect(b);
  ASSERT_TRUE(common.ok());
  EXPECT_EQ(common->size(), 2u);
  auto only_a = a.Minus(b);
  ASSERT_TRUE(only_a.ok());
  EXPECT_EQ(only_a->size(), 2u);
  EXPECT_TRUE(only_a->Contains({Value::Int(0)}));

  Relation c(MakeSchema("C", {"x", "y"}));
  EXPECT_FALSE(a.Intersect(c).ok());
  EXPECT_FALSE(a.Minus(c).ok());
}

TEST(Relation, SortedRowsDeterministic) {
  Relation r(MakeSchema("R", {"a"}));
  ASSERT_TRUE(r.Insert({Value::Int(3)}).ok());
  ASSERT_TRUE(r.Insert({Value::Int(1)}).ok());
  ASSERT_TRUE(r.Insert({Value::Int(2)}).ok());
  auto sorted = r.SortedRows();
  EXPECT_EQ(sorted[0][0].AsInt(), 1);
  EXPECT_EQ(sorted[2][0].AsInt(), 3);
}

// Row i of the grown relations below; row i and row i + 1000 share their
// second value, so the index keys on whole rows.
Tuple GrownRow(int64_t i) {
  return {Value::Int(i), Value::Str("s" + std::to_string(i % 1000))};
}

constexpr int64_t kGrownRows = 100000;

TEST(Relation, RowIndexSurvivesGrowth) {
  Relation r(MakeSchema("R", {"a", "b"}));
  ASSERT_TRUE(r.Insert(GrownRow(0)).ok());
  ASSERT_TRUE(r.Insert(GrownRow(1)).ok());
  EXPECT_TRUE(r.Contains(GrownRow(0)));
  EXPECT_FALSE(r.Contains(GrownRow(2)));
  for (int64_t i = 2; i < kGrownRows; ++i) {
    ASSERT_TRUE(r.Insert(GrownRow(i)).ok());
  }
  ASSERT_EQ(r.size(), static_cast<size_t>(kGrownRows));
  // Rows from before the first rehash and after the last, in insertion
  // order.
  for (int64_t i = 0; i < kGrownRows; i += 97) {
    EXPECT_TRUE(r.Contains(GrownRow(i))) << i;
    EXPECT_EQ(r.row(static_cast<size_t>(i)), GrownRow(i)) << i;
  }
  EXPECT_TRUE(r.Contains(GrownRow(1)));
  EXPECT_TRUE(r.Contains(GrownRow(kGrownRows - 1)));
  EXPECT_FALSE(r.Contains(GrownRow(kGrownRows)));
  EXPECT_FALSE(r.Contains({Value::Int(5), Value::Str("s6")}));
  EXPECT_FALSE(r.Contains({Value::Int(5)}));

  ASSERT_TRUE(r.Insert(GrownRow(12345)).ok());  // duplicate: ignored
  EXPECT_EQ(r.size(), static_cast<size_t>(kGrownRows));

  Relation copy = r;
  ASSERT_TRUE(copy.Insert(GrownRow(kGrownRows)).ok());
  EXPECT_EQ(copy.size(), static_cast<size_t>(kGrownRows) + 1);
  EXPECT_TRUE(copy.Contains(GrownRow(kGrownRows)));
  EXPECT_EQ(r.size(), static_cast<size_t>(kGrownRows));
  EXPECT_FALSE(r.Contains(GrownRow(kGrownRows)));
}

TEST(Relation, SetOperationsOnGrownRelation) {
  Relation a(MakeSchema("A", {"a", "b"}));
  Relation b(MakeSchema("B", {"a", "b"}));
  for (int64_t i = 0; i < kGrownRows; ++i) {
    ASSERT_TRUE(a.Insert(GrownRow(i)).ok());
    if (i % 3 == 0) ASSERT_TRUE(b.Insert(GrownRow(i)).ok());
  }
  Relation even =
      a.Select([](const Tuple& t) { return t[0].AsInt() % 2 == 0; });
  EXPECT_EQ(even.size(), static_cast<size_t>(kGrownRows / 2));
  EXPECT_TRUE(even.Contains(GrownRow(kGrownRows - 2)));
  EXPECT_FALSE(even.Contains(GrownRow(kGrownRows - 1)));

  auto common = a.Intersect(b);
  ASSERT_TRUE(common.ok());
  EXPECT_EQ(common->size(), b.size());
  EXPECT_TRUE(common->Contains(GrownRow(3)));
  EXPECT_FALSE(common->Contains(GrownRow(4)));

  auto rest = a.Minus(b);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->size(), a.size() - b.size());
  EXPECT_TRUE(rest->Contains(GrownRow(kGrownRows - 2)));
  EXPECT_FALSE(rest->Contains(GrownRow(3)));
  ASSERT_GE(rest->size(), 3u);
  EXPECT_EQ(rest->row(0), GrownRow(1));  // a's insertion order
  EXPECT_EQ(rest->row(2), GrownRow(4));

  auto projected = a.Project("P", {1});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->size(), 1000u);
  EXPECT_TRUE(projected->Contains({Value::Str("s999")}));
  EXPECT_FALSE(projected->Contains({Value::Str("s1000")}));
}

TEST(Relation, ToTableRendersHeaderAndRows) {
  Relation r(MakeSchema("Measurements", {"Time", "Patient"}));
  ASSERT_TRUE(r.InsertText({"Sep/5-12:10", "Tom Waits"}).ok());
  std::string table = r.ToTable();
  EXPECT_NE(table.find("Measurements (1 rows)"), std::string::npos);
  EXPECT_NE(table.find("Tom Waits"), std::string::npos);
  EXPECT_NE(table.find("Patient"), std::string::npos);
}

TEST(Database, AddAndLookup) {
  Database db;
  ASSERT_TRUE(db.AddRelation(MakeSchema("R", {"a"})).ok());
  EXPECT_EQ(db.AddRelation(MakeSchema("R", {"a"})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.HasRelation("R"));
  EXPECT_FALSE(db.HasRelation("S"));
  EXPECT_TRUE(db.GetRelation("R").ok());
  EXPECT_EQ(db.GetRelation("S").status().code(), StatusCode::kNotFound);
}

TEST(Database, InsertTextAutoCreates) {
  Database db;
  ASSERT_TRUE(db.InsertText("T", {"a", "1"}).ok());
  ASSERT_TRUE(db.InsertText("T", {"b", "2"}).ok());
  auto rel = db.GetRelation("T");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 2u);
  EXPECT_EQ(db.TotalRows(), 2u);
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"T"});
}

TEST(Database, PutRelationReplaces) {
  Database db;
  Relation r(MakeSchema("R", {"a"}));
  ASSERT_TRUE(r.Insert({Value::Int(1)}).ok());
  db.PutRelation(r);
  Relation r2(MakeSchema("R", {"a"}));
  ASSERT_TRUE(r2.Insert({Value::Int(1)}).ok());
  ASSERT_TRUE(r2.Insert({Value::Int(2)}).ok());
  db.PutRelation(r2);
  EXPECT_EQ((*db.GetRelation("R"))->size(), 2u);
  EXPECT_EQ(db.RelationNames().size(), 1u);
}

}  // namespace
}  // namespace mdqa
