#include "datalog/instance.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace mdqa::datalog {
namespace {

TEST(FactTable, InsertDedupesAndKeepsMinLevel) {
  FactTable t(2);
  Term row[2] = {Term::Constant(1), Term::Constant(2)};
  EXPECT_TRUE(t.Insert(row, 3));
  EXPECT_FALSE(t.Insert(row, 5));  // duplicate
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Level(0), 3u);
  EXPECT_FALSE(t.Insert(row, 1));  // lowers the level
  EXPECT_EQ(t.Level(0), 1u);
}

TEST(FactTable, ContainsAndRow) {
  FactTable t(2);
  Term a[2] = {Term::Constant(1), Term::Null(0)};
  Term b[2] = {Term::Constant(1), Term::Null(1)};
  EXPECT_TRUE(t.Insert(a, 0));
  EXPECT_TRUE(t.Contains(a));
  EXPECT_FALSE(t.Contains(b));  // distinct nulls are distinct values
  EXPECT_EQ(t.Row(0)[1], Term::Null(0));
}

TEST(FactTable, ProbeFindsRowsByPosition) {
  FactTable t(2);
  Term r1[2] = {Term::Constant(1), Term::Constant(10)};
  Term r2[2] = {Term::Constant(1), Term::Constant(20)};
  Term r3[2] = {Term::Constant(2), Term::Constant(10)};
  t.Insert(r1, 0);
  t.Insert(r2, 0);
  t.Insert(r3, 0);
  EXPECT_EQ(t.Probe(0, Term::Constant(1)).size(), 2u);
  EXPECT_EQ(t.Probe(0, Term::Constant(2)).size(), 1u);
  EXPECT_EQ(t.Probe(1, Term::Constant(10)).size(), 2u);
  EXPECT_TRUE(t.Probe(1, Term::Constant(99)).empty());
}

TEST(Instance, FromProgramLoadsFactsAtLevelZero) {
  auto p = Parser::ParseProgram("P(\"a\"). P(\"b\"). Q(\"a\", \"b\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  EXPECT_EQ(inst.TotalFacts(), 3u);
  uint32_t pred = p->vocab()->FindPredicate("P");
  EXPECT_EQ(inst.CountFacts(pred), 2u);
  EXPECT_EQ(inst.Table(pred)->Level(0), 0u);
}

TEST(Instance, AddFactReportsNovelty) {
  auto p = Parser::ParseProgram("P(\"a\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  Atom f = p->facts()[0];
  EXPECT_FALSE(inst.AddFact(f, 1));  // already present
  f.terms[0] = p->vocab()->Str("new");
  EXPECT_TRUE(inst.AddFact(f, 1));
  EXPECT_TRUE(inst.Contains(f));
}

TEST(Instance, PredicatesSortedAndCounted) {
  auto p = Parser::ParseProgram("B(1). A(1). A(2).");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  auto preds = inst.Predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_LT(preds[0], preds[1]);
}

TEST(Instance, FactsRoundTrip) {
  auto p = Parser::ParseProgram("P(\"x\", 1). P(\"y\", 2).");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  uint32_t pred = p->vocab()->FindPredicate("P");
  auto facts = inst.Facts(pred);
  ASSERT_EQ(facts.size(), 2u);
  for (const Atom& f : facts) EXPECT_TRUE(inst.Contains(f));
}

TEST(Instance, FactsIterateInInsertionOrder) {
  // The contract pinned in instance.h: Facts(pred) — and Row(i) under it
  // — list rows in first-insertion order. Duplicate inserts and level
  // updates must not reorder; the parallel-vs-serial differential
  // harness depends on this determinism.
  auto vocab = std::make_shared<Vocabulary>();
  Instance inst(vocab);
  auto pred = vocab->InternPredicate("P", 1);
  ASSERT_TRUE(pred.ok());
  const int kRows = 32;
  for (int i = 0; i < kRows; ++i) {
    // Insert out of value order so insertion order != term order.
    Term t = vocab->Str("v" + std::to_string((i * 13) % kRows));
    EXPECT_TRUE(inst.AddFact(Atom(*pred, {t}), 0));
  }
  // Duplicate re-inserts at other levels: novelty is false, order keeps.
  for (int i = 0; i < kRows; ++i) {
    Term t = vocab->Str("v" + std::to_string((i * 13) % kRows));
    EXPECT_FALSE(inst.AddFact(Atom(*pred, {t}), 5));
  }
  std::vector<Atom> facts = inst.Facts(*pred);
  ASSERT_EQ(facts.size(), static_cast<size_t>(kRows));
  const FactTable* table = inst.Table(*pred);
  ASSERT_NE(table, nullptr);
  for (int i = 0; i < kRows; ++i) {
    Term expected = vocab->Str("v" + std::to_string((i * 13) % kRows));
    EXPECT_EQ(facts[static_cast<size_t>(i)].terms[0], expected)
        << "Facts() out of insertion order at row " << i;
    EXPECT_EQ(table->Row(static_cast<uint32_t>(i))[0], expected)
        << "Row() out of insertion order at row " << i;
  }
}

TEST(Instance, LoadRelationAndDatabase) {
  Database db;
  ASSERT_TRUE(db.InsertText("R", {"a", "1"}).ok());
  ASSERT_TRUE(db.InsertText("R", {"b", "2"}).ok());
  ASSERT_TRUE(db.InsertText("S", {"x"}).ok());
  auto vocab = std::make_shared<Vocabulary>();
  Instance inst(vocab);
  ASSERT_TRUE(inst.LoadDatabase(db).ok());
  EXPECT_EQ(inst.TotalFacts(), 3u);
  EXPECT_EQ(inst.CountFacts(vocab->FindPredicate("R")), 2u);
}

TEST(Instance, LoadRelationRejectsArityDrift) {
  Database db;
  ASSERT_TRUE(db.InsertText("R", {"a", "1"}).ok());
  auto vocab = std::make_shared<Vocabulary>();
  ASSERT_TRUE(vocab->InternPredicate("R", 3).ok());
  Instance inst(vocab);
  auto rel = db.GetRelation("R");
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(inst.LoadRelation(**rel).ok());
}

TEST(Instance, ExportRelationDropsOrKeepsNulls) {
  auto vocab = std::make_shared<Vocabulary>();
  ASSERT_TRUE(vocab->InternPredicate("P", 2).ok());
  uint32_t pred = vocab->FindPredicate("P");
  Instance inst(vocab);
  inst.AddFact(Atom(pred, {vocab->Str("a"), vocab->Str("b")}), 0);
  inst.AddFact(Atom(pred, {vocab->Str("c"), *vocab->FreshNull()}), 1);

  auto certain = inst.ExportRelation(pred, "P", {"x", "y"}, false);
  ASSERT_TRUE(certain.ok());
  EXPECT_EQ(certain->size(), 1u);

  auto all = inst.ExportRelation(pred, "P", {}, true);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  EXPECT_EQ(all->schema().attribute(0).name, "a0");
}

TEST(Instance, ExportRelationChecksAttributeCount) {
  auto vocab = std::make_shared<Vocabulary>();
  ASSERT_TRUE(vocab->InternPredicate("P", 2).ok());
  Instance inst(vocab);
  EXPECT_FALSE(
      inst.ExportRelation(vocab->FindPredicate("P"), "P", {"one"}, true).ok());
}

TEST(Instance, ToStringIsSortedAndReparseable) {
  auto p = Parser::ParseProgram("B(2). A(1). B(1).");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  std::string s = inst.ToString();
  EXPECT_EQ(s, "A(1).\nB(1).\nB(2).\n");
}

TEST(Instance, ExportRelationRendersNullsWhenKept) {
  auto vocab = std::make_shared<Vocabulary>();
  ASSERT_TRUE(vocab->InternPredicate("P", 2).ok());
  uint32_t pred = vocab->FindPredicate("P");
  Instance inst(vocab);
  Term null = *vocab->FreshNull();
  inst.AddFact(Atom(pred, {vocab->Str("a"), null}), 1);

  auto dropped = inst.ExportRelation(pred, "P", {"x", "y"}, false);
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped->empty());

  auto kept = inst.ExportRelation(pred, "P", {"x", "y"}, true);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->size(), 1u);
  // The labeled null rides along as its display string.
  EXPECT_EQ(kept->row(0)[1], Value::Str(vocab->TermToString(null)));
}

TEST(FactTable, MemoryEstimateBytesIsMonotone) {
  FactTable t(3);
  uint64_t prev = t.MemoryEstimateBytes();
  for (int i = 0; i < 256; ++i) {
    Term row[3] = {Term::Constant(static_cast<uint32_t>(i)),
                   Term::Constant(static_cast<uint32_t>(i % 7)),
                   Term::Constant(42)};
    EXPECT_TRUE(t.Insert(row, 0));
    const uint64_t now = t.MemoryEstimateBytes();
    EXPECT_GE(now, prev) << "estimate shrank after insert " << i;
    prev = now;
  }
  // Duplicate inserts change nothing, so the estimate must not move.
  Term dup[3] = {Term::Constant(0), Term::Constant(0), Term::Constant(42)};
  EXPECT_FALSE(t.Insert(dup, 0));
  EXPECT_EQ(t.MemoryEstimateBytes(), prev);
  EXPECT_GT(prev, 0u);
}

TEST(Instance, MemoryEstimateBytesGrowsWithFacts) {
  auto p = Parser::ParseProgram("P(\"a\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  const uint64_t base = inst.MemoryEstimateBytes();
  EXPECT_GT(base, 0u);
  uint32_t pred = p->vocab()->FindPredicate("P");
  uint64_t prev = base;
  for (int i = 0; i < 64; ++i) {
    inst.AddFact(Atom(pred, {p->mutable_vocab()->Str("c" + std::to_string(i))}),
                 0);
    const uint64_t now = inst.MemoryEstimateBytes();
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_GT(prev, base);
}

TEST(Instance, SnapshotSharesTablesUntilMutation) {
  auto p = Parser::ParseProgram("P(\"a\"). Q(\"b\").");
  ASSERT_TRUE(p.ok());
  Instance base = Instance::FromProgram(*p);
  uint32_t pred_p = p->vocab()->FindPredicate("P");
  uint32_t pred_q = p->vocab()->FindPredicate("Q");

  Instance snap = base.Snapshot();
  EXPECT_TRUE(snap.SharesTableWith(base, pred_p));
  EXPECT_TRUE(snap.SharesTableWith(base, pred_q));

  // Mutating P through the snapshot clones only P's table.
  snap.AddFact(Atom(pred_p, {p->mutable_vocab()->Str("z")}), 0);
  EXPECT_FALSE(snap.SharesTableWith(base, pred_p));
  EXPECT_TRUE(snap.SharesTableWith(base, pred_q));
  EXPECT_EQ(base.CountFacts(pred_p), 1u);  // the base never sees the write
  EXPECT_EQ(snap.CountFacts(pred_p), 2u);

  // Grow the clone's dedup index past at least one resize; the base's
  // index, copied before, answers only for its own rows.
  std::vector<Atom> added;
  for (int i = 0; i < 40; ++i) {
    added.emplace_back(pred_p,
                       std::vector<Term>{p->mutable_vocab()->Int(i)});
    EXPECT_TRUE(snap.AddFact(added.back(), 1));
  }
  EXPECT_EQ(snap.CountFacts(pred_p), 42u);
  for (const Atom& a : added) {
    EXPECT_TRUE(snap.Contains(a));
    EXPECT_FALSE(base.Contains(a));
  }
  const Atom old_row(pred_p, {p->mutable_vocab()->Str("a")});
  EXPECT_FALSE(snap.AddFact(old_row, 0));  // duplicate on both sides
  EXPECT_FALSE(base.AddFact(old_row, 0));
  EXPECT_EQ(base.CountFacts(pred_p), 1u);
  EXPECT_EQ(snap.CountFacts(pred_p), 42u);
}

TEST(Instance, GenerationBumpsOnMutationOnly) {
  auto p = Parser::ParseProgram("P(\"a\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  uint32_t pred = p->vocab()->FindPredicate("P");
  const uint64_t g0 = inst.generation();
  Instance snap = inst.Snapshot();
  EXPECT_EQ(snap.generation(), g0);  // snapshots are reads
  inst.AddFact(Atom(pred, {p->mutable_vocab()->Str("b")}), 0);
  EXPECT_GT(inst.generation(), g0);
  EXPECT_EQ(snap.generation(), g0);
}

TEST(Instance, EnsureGenerationAboveIsMonotone) {
  auto vocab = std::make_shared<Vocabulary>();
  Instance inst(vocab);
  const uint64_t g0 = inst.generation();
  inst.EnsureGenerationAbove(g0 + 41);
  EXPECT_GT(inst.generation(), g0 + 41);
  const uint64_t g1 = inst.generation();
  inst.EnsureGenerationAbove(0);  // already above: no-op
  EXPECT_EQ(inst.generation(), g1);
}

TEST(Instance, FreezeWatermarksSegments) {
  auto vocab = std::make_shared<Vocabulary>();
  ASSERT_TRUE(vocab->InternPredicate("P", 1).ok());
  uint32_t pred = vocab->FindPredicate("P");
  Instance inst(vocab);
  inst.AddFact(Atom(pred, {vocab->Str("a")}), 0);
  inst.AddFact(Atom(pred, {vocab->Str("b")}), 0);
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 0u);
  inst.Freeze();
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 2u);
  // Appends land in the mutable overlay above the watermark.
  inst.AddFact(Atom(pred, {vocab->Str("c")}), 1);
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 2u);
  EXPECT_EQ(inst.Table(pred)->size(), 3u);
}

TEST(Vocabulary, PredicateArityConflictRejected) {
  Vocabulary vocab;
  ASSERT_TRUE(vocab.InternPredicate("P", 2).ok());
  EXPECT_TRUE(vocab.InternPredicate("P", 2).ok());
  EXPECT_FALSE(vocab.InternPredicate("P", 3).ok());
}

TEST(Vocabulary, FreshVariablesNeverCollideWithParsedOnes) {
  Vocabulary vocab;
  vocab.InternVariable("X");
  Term fresh = vocab.FreshVariable();
  EXPECT_NE(vocab.VariableName(fresh.id()), "X");
  EXPECT_EQ(vocab.VariableName(fresh.id()).substr(0, 2), "$v");
}

TEST(Vocabulary, FreshNullsAreSequential) {
  Vocabulary vocab;
  Term n0 = *vocab.FreshNull();
  Term n1 = *vocab.FreshNull();
  EXPECT_NE(n0, n1);
  EXPECT_EQ(vocab.NumNulls(), 2u);
  EXPECT_EQ(vocab.TermToString(n0), "_n0");
}

TEST(FactTable, OverlayAppendAfterMarkFrozen) {
  FactTable t(1);
  Term a[1] = {Term::Constant(1)};
  Term b[1] = {Term::Constant(2)};
  t.Insert(a, 0);
  t.MarkFrozen();
  EXPECT_TRUE(t.Insert(b, 1));
  EXPECT_EQ(t.frozen_rows(), 1u);
  EXPECT_EQ(t.size(), 2u);
  // Probes see frozen base and overlay rows alike, ascending.
  EXPECT_EQ(t.Probe(0, Term::Constant(1)), (std::vector<uint32_t>{0}));
  EXPECT_EQ(t.Probe(0, Term::Constant(2)), (std::vector<uint32_t>{1}));
  // Re-inserting a frozen-base row is still a duplicate.
  EXPECT_FALSE(t.Insert(a, 2));
}

// A table holds its rows either in one overlay or in a sealed chain plus
// an overlay; the statistics must not depend on which. The second
// instance seals every fact but the last, whose first value repeats
// across the seal, so its distinct count must consult the sealed
// dictionary.
TEST(Instance, StatisticsIdenticalAcrossStorageModes) {
  auto p = Parser::ParseProgram(
      "P(\"a\"). P(\"b\"). P(\"a\"). Q(\"a\", \"b\"). Q(\"a\", \"c\").");
  ASSERT_TRUE(p.ok());
  InstanceStatistics one = Instance::FromProgram(*p).CollectStatistics();

  Instance chained(p->vocab());
  const std::vector<Atom>& facts = p->facts();
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i + 1 == facts.size()) chained.Freeze();
    chained.AddFact(facts[i], 0);
  }
  const uint32_t q = p->vocab()->FindPredicate("Q");
  ASSERT_EQ(chained.Table(q)->NumSegments(), 2u);
  InstanceStatistics two = chained.CollectStatistics();

  EXPECT_EQ(one.total_facts, two.total_facts);
  EXPECT_EQ(one.max_rows, two.max_rows);
  ASSERT_EQ(one.tables.size(), two.tables.size());
  for (const auto& [pred, t] : one.tables) {
    ASSERT_TRUE(two.tables.count(pred));
    EXPECT_EQ(t.rows, two.tables.at(pred).rows);
    EXPECT_EQ(t.distinct, two.tables.at(pred).distinct);
  }
}

}  // namespace
}  // namespace mdqa::datalog
