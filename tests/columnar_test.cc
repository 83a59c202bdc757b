#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "datalog/column.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "datalog/segment.h"

namespace mdqa::datalog {
namespace {

// ---------------------------------------------------------------- Column

TEST(Column, DictEncodesAndPostsAscending) {
  Column c;
  Term a = Term::Constant(1), b = Term::Constant(2);
  bool fresh = false;
  EXPECT_EQ(c.Append(a, &fresh), 0u);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(c.Append(b, &fresh), 1u);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(c.Append(a, &fresh), 0u);  // re-appearance reuses the code
  EXPECT_FALSE(fresh);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.DistinctTerms(), 2u);
  EXPECT_EQ(c.CodeOf(a), 0u);
  EXPECT_EQ(c.CodeOf(b), 1u);
  EXPECT_EQ(c.CodeOf(Term::Constant(99)), Column::kNoCode);
  EXPECT_EQ(c.Postings(0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(c.Postings(1), (std::vector<uint32_t>{1}));
  EXPECT_EQ(c.TermAt(2), a);
  EXPECT_EQ(c.TermOfCode(1), b);
  EXPECT_GT(c.MemoryEstimateBytes(), 0u);
}

// Satellite regression: with every encode-map key forced into one bucket,
// distinct terms still get distinct codes and CodeOf resolves each one —
// the dictionary verification, not the hash, must be load-bearing.
TEST(Column, TotalHashCollisionStillResolvesExactly) {
  Column c;
  c.set_hash_mask_for_test(0);
  constexpr int kTerms = 64;
  for (int i = 0; i < kTerms; ++i) {
    bool fresh = false;
    EXPECT_EQ(c.Append(Term::Constant(i), &fresh), static_cast<uint32_t>(i));
    EXPECT_TRUE(fresh);
  }
  for (int i = 0; i < kTerms; ++i) {
    bool fresh = true;
    c.Append(Term::Constant(i), &fresh);  // all duplicates
    EXPECT_FALSE(fresh);
  }
  EXPECT_EQ(c.DistinctTerms(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    EXPECT_EQ(c.CodeOf(Term::Constant(i)), static_cast<uint32_t>(i));
    EXPECT_EQ(c.Postings(i),
              (std::vector<uint32_t>{static_cast<uint32_t>(i),
                                     static_cast<uint32_t>(i + kTerms)}));
  }
  EXPECT_EQ(c.CodeOf(Term::Constant(kTerms)), Column::kNoCode);
  // Nulls and constants with colliding masked hashes stay distinct too.
  EXPECT_EQ(c.CodeOf(Term::Null(0)), Column::kNoCode);
}

// --------------------------------------------------------------- Segment

TEST(Segment, AppendsRowsColumnWise) {
  Segment s(2);
  Term r1[2] = {Term::Constant(1), Term::Constant(10)};
  Term r2[2] = {Term::Constant(1), Term::Constant(20)};
  uint8_t fresh[2] = {0, 0};
  s.Append(r1, fresh);
  EXPECT_EQ(fresh[0], 1);
  EXPECT_EQ(fresh[1], 1);
  s.Append(r2, fresh);
  EXPECT_EQ(fresh[0], 0);  // constant 1 already in column 0's dictionary
  EXPECT_EQ(fresh[1], 1);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.column(0).DistinctTerms(), 1u);
  EXPECT_EQ(s.column(1).DistinctTerms(), 2u);
  EXPECT_GT(s.MemoryEstimateBytes(), 0u);
}

// ----------------------------------------------------- FactTable columnar

TEST(FactTableColumnar, DefaultModeIsColumnar) {
  FactTable t(2);
  EXPECT_EQ(t.NumSegments(), 1u);  // just the mutable overlay
  EXPECT_EQ(t.SegmentAt(0).segment->rows(), 0u);
  Term r[2] = {Term::Constant(1), Term::Constant(2)};
  EXPECT_TRUE(t.Insert(r, 0));
  EXPECT_EQ(t.SegmentAt(0).segment->rows(), 1u);  // rows land in columns
}

TEST(FactTableColumnar, DuplicateInsertLowersLevel) {
  FactTable t(2);
  Term row[2] = {Term::Constant(1), Term::Constant(2)};
  EXPECT_TRUE(t.Insert(row, 3));
  EXPECT_FALSE(t.Insert(row, 5));
  EXPECT_EQ(t.Level(0), 3u);
  EXPECT_FALSE(t.Insert(row, 1));
  EXPECT_EQ(t.Level(0), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FactTableColumnar, ArityZeroTable) {
  FactTable t(0);
  Term* row = nullptr;
  EXPECT_TRUE(t.Insert(row, 0));
  EXPECT_FALSE(t.Insert(row, 1));  // the single empty row is a duplicate
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(row));
  EXPECT_EQ(t.DistinctAt(0), 0u);  // no positions
  EXPECT_GE(t.MemoryEstimateBytes(), 0u);
}

// The column probes against a scan of the flattened rows.
TEST(FactTableColumnar, ProbeAndDistinctMatchRowMode) {
  FactTable t(2);
  for (int i = 0; i < 50; ++i) {
    Term r[2] = {Term::Constant(i % 5), Term::Constant(i)};
    EXPECT_TRUE(t.Insert(r, 0));
  }
  for (size_t p = 0; p < 2; ++p) {
    std::vector<Term> seen;
    for (int v = 0; v < 50; ++v) {
      Term term = Term::Constant(v);
      std::vector<uint32_t> scanned;
      for (uint32_t r = 0; r < t.size(); ++r) {
        if (t.Row(r)[p] == term) scanned.push_back(r);
      }
      if (!scanned.empty()) seen.push_back(term);
      EXPECT_EQ(t.Probe(p, term), scanned);
      EXPECT_EQ(t.ProbeCount(p, term), scanned.size());
    }
    EXPECT_EQ(t.DistinctAt(p), seen.size());
  }
  // A single-segment table exposes a zero-copy list.
  EXPECT_NE(t.ProbeRef(0, Term::Constant(1)), nullptr);
  // An absent term yields an empty (but non-null) reference.
  ASSERT_NE(t.ProbeRef(0, Term::Constant(777)), nullptr);
  EXPECT_TRUE(t.ProbeRef(0, Term::Constant(777))->empty());
}

// Satellite regression: force total collision in every hash-keyed probe
// structure (dedup index and column dictionaries); exact-match behavior
// must be unchanged.
TEST(FactTableColumnar, TotalHashCollisionKeepsExactSemantics) {
  FactTable t(2);
  t.set_hash_mask_for_test(0);
  for (int i = 0; i < 32; ++i) {
    Term r[2] = {Term::Constant(i), Term::Constant(i % 3)};
    EXPECT_TRUE(t.Insert(r, 0));
    EXPECT_FALSE(t.Insert(r, 0));  // duplicate despite colliding hash
  }
  EXPECT_EQ(t.size(), 32u);
  EXPECT_EQ(t.DistinctAt(0), 32u);
  EXPECT_EQ(t.DistinctAt(1), 3u);
  for (int i = 0; i < 32; ++i) {
    Term r[2] = {Term::Constant(i), Term::Constant(i % 3)};
    EXPECT_TRUE(t.Contains(r));
    EXPECT_EQ(t.ProbeCount(0, Term::Constant(i)), 1u);
  }
  Term absent[2] = {Term::Constant(99), Term::Constant(0)};
  EXPECT_FALSE(t.Contains(absent));
  EXPECT_TRUE(t.Probe(0, Term::Constant(99)).empty());
  EXPECT_EQ(t.ProbeCount(1, Term::Constant(0)), 11u);
}

// -------------------------------------------------- sealing & segments

TEST(FactTableColumnar, SealOverlayBuildsSegmentChain) {
  FactTable t(2);
  for (int i = 0; i < 4; ++i) {
    Term r[2] = {Term::Constant(i % 2), Term::Constant(i)};
    t.Insert(r, 0);
  }
  t.MarkFrozen();
  t.SealOverlay();
  EXPECT_EQ(t.NumSegments(), 2u);  // sealed + fresh empty overlay
  EXPECT_EQ(t.SegmentAt(0).base, 0u);
  EXPECT_EQ(t.SegmentAt(0).segment->rows(), 4u);
  EXPECT_EQ(t.SegmentAt(1).base, 4u);
  EXPECT_EQ(t.SegmentAt(1).segment->rows(), 0u);

  // Overlay appends after the freeze land above the watermark and are
  // visible to probes alongside the sealed base, globally ascending.
  for (int i = 4; i < 8; ++i) {
    Term r[2] = {Term::Constant(i % 2), Term::Constant(i)};
    EXPECT_TRUE(t.Insert(r, 1));
  }
  EXPECT_EQ(t.frozen_rows(), 4u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.Probe(0, Term::Constant(0)),
            (std::vector<uint32_t>{0, 2, 4, 6}));
  EXPECT_EQ(t.ProbeCount(0, Term::Constant(1)), 4u);
  EXPECT_EQ(t.DistinctAt(0), 2u);  // spans segments without double count
  EXPECT_EQ(t.DistinctAt(1), 8u);
  // Multi-segment gathers have no single contiguous list to reference.
  EXPECT_EQ(t.ProbeRef(0, Term::Constant(0)), nullptr);
  // Sealing the (now non-empty) overlay again grows the chain.
  t.SealOverlay();
  EXPECT_EQ(t.NumSegments(), 3u);
  EXPECT_EQ(t.Probe(0, Term::Constant(0)),
            (std::vector<uint32_t>{0, 2, 4, 6}));
}

TEST(FactTableColumnar, SealingEmptyOverlayIsNoOp) {
  FactTable t(1);
  Term r[1] = {Term::Constant(1)};
  t.Insert(r, 0);
  t.SealOverlay();
  size_t segments = t.NumSegments();
  t.SealOverlay();  // overlay empty: nothing to seal
  EXPECT_EQ(t.NumSegments(), segments);
}

// Joins/probes against a table whose sealed chain contains rows but whose
// overlay is empty (the steady state after Instance::Freeze).
TEST(FactTableColumnar, EmptyOverlayProbes) {
  FactTable t(2);
  Term r[2] = {Term::Constant(1), Term::Constant(2)};
  t.Insert(r, 0);
  t.SealOverlay();
  EXPECT_TRUE(t.Contains(r));
  EXPECT_EQ(t.ProbeCount(0, Term::Constant(1)), 1u);
  Term r2[2] = {Term::Constant(1), Term::Constant(3)};
  EXPECT_FALSE(t.Contains(r2));
  EXPECT_TRUE(t.Probe(1, Term::Constant(3)).empty());
}

// ------------------------------------------------------ Instance::Freeze

TEST(InstanceColumnar, FreezeSealsUnsharedTables) {
  auto p = Parser::ParseProgram("P(\"a\"). P(\"b\"). Q(\"a\", \"b\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  uint32_t pred = p->vocab()->FindPredicate("P");
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 1u);
  inst.Freeze();
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 2u);
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 2u);
}

TEST(InstanceColumnar, FreezeLeavesSharedTablesUnsealed) {
  auto p = Parser::ParseProgram("P(\"a\"). P(\"b\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  Instance snapshot = inst.Snapshot();  // shares every table
  uint32_t pred = p->vocab()->FindPredicate("P");
  ASSERT_TRUE(inst.SharesTableWith(snapshot, pred));
  inst.Freeze();
  // The watermark is set, but the shared table must not restructure its
  // segment chain under a concurrent snapshot reader.
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 2u);
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 1u);
  // Once the snapshot is the only holder... (mutating through inst first
  // clones the table, after which Freeze can seal the private copy).
  Atom extra(pred, {inst.vocab()->Const(Value::Str("c"))});
  EXPECT_TRUE(inst.AddFact(extra, 0));
  ASSERT_FALSE(inst.SharesTableWith(snapshot, pred));
  inst.Freeze();
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 2u);
  // The snapshot still sees exactly its two original facts.
  EXPECT_EQ(snapshot.CountFacts(pred), 2u);
  EXPECT_EQ(inst.CountFacts(pred), 3u);
}

// The estimate covers both the flattened rows and the column segments,
// including segments sealed by a freeze.
TEST(InstanceColumnar, MemoryEstimateCoversBothLayouts) {
  FactTable t(2);
  const uint64_t empty = t.MemoryEstimateBytes();
  Term r[2] = {Term::Constant(1), Term::Constant(2)};
  t.Insert(r, 0);
  const uint64_t one_row = t.MemoryEstimateBytes();
  EXPECT_GE(one_row,
            2 * sizeof(Term) + t.SegmentAt(0).segment->MemoryEstimateBytes());
  EXPECT_GT(one_row, empty);
  t.SealOverlay();
  EXPECT_GE(t.MemoryEstimateBytes(),
            t.SegmentAt(0).segment->MemoryEstimateBytes() + 2 * sizeof(Term));
}

}  // namespace
}  // namespace mdqa::datalog
