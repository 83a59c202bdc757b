// Differential parallel-vs-serial harness for the two places a thread
// pool runs work: UCQ rewriting evaluates its disjuncts concurrently, and
// the assessor fans its relations out. On seeded random programs and MD
// ontologies, execution at 1/2/4/8 workers must be identical to serial
// execution — same certain answers, byte-identical assessment reports.
// The chase itself is serial (see docs/parallelism.md).
//
// Generators are shared with engines_property_test via src/testgen/generators.h
// — everything is a pure function of the seed, so failures reproduce.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "datalog/parser.h"
#include "testgen/generators.h"
#include "qa/engines.h"
#include "quality/assessor.h"
#include "scenarios/synthetic.h"

namespace mdqa {
namespace {

using datalog::Parser;
using testgen::GeneratedCase;

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

// The UCQ rewriter evaluates disjuncts concurrently; answers must match
// the serial evaluation. Odd hierarchy seeds are upward-only, where the
// rewriting is applicable and terminates.
class RewriterDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RewriterDiff, RewritingAnswersIdentical) {
  const uint32_t seed = GetParam() * 2 + 1;  // odd: upward-only
  GeneratedCase c = testgen::GenerateHierarchy(seed);
  ASSERT_FALSE(c.downward);
  for (const std::string& text : c.queries) {
    auto p = Parser::ParseProgram(c.program_text);
    ASSERT_TRUE(p.ok()) << p.status();
    auto q = Parser::ParseQuery(text, p->mutable_vocab());
    ASSERT_TRUE(q.ok()) << q.status();
    auto serial =
        qa::Answer(qa::Engine::kRewriting, *p, *q, qa::AnswerOptions{});
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      qa::AnswerOptions aopts;
      aopts.pool = &pool;
      auto pooled = qa::Answer(qa::Engine::kRewriting, *p, *q, aopts);
      ASSERT_TRUE(pooled.ok()) << pooled.status();
      EXPECT_EQ(*pooled, *serial)
          << "rewriting answers diverged at threads=" << threads << " on "
          << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriterDiff, ::testing::Range(0u, 12u));

// Determinism regression for the full assessment pipeline: the same
// synthetic MD scenario assessed serially and at 1/2/8 workers must
// render byte-identical reports — ToString AND ToJson — including the
// lint-gate counts and, on every third seed, per-relation kTruncated
// budget outcomes (counter caps are private to each relation, so the
// truncation point cannot depend on the thread count).
class AssessorDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AssessorDiff, ReportsByteIdenticalAcrossThreadCounts) {
  const uint32_t seed = GetParam();
  scenarios::SyntheticSpec spec;
  spec.institutions = 1 + static_cast<int>(seed % 2);
  spec.units_per_institution = 1 + static_cast<int>(seed % 3);
  spec.wards_per_unit = 1 + static_cast<int>((seed / 2) % 3);
  spec.patients = 6 + static_cast<int>(seed % 5);
  spec.days = 2 + static_cast<int>(seed % 3);
  spec.include_downward_rules = (seed % 2) == 0;
  spec.seed = seed * 31 + 7;

  quality::AssessOptions base;
  if (seed % 3 == 0) {
    // Force deterministic per-relation truncation: the read-off charges
    // steps once per 64 candidate rows, so grow the scenario past one
    // batch and cap steps below it — the cap trips at the same row on
    // every attempt (escalation stays under one batch) and on every
    // thread count (the derived budget is private to the relation).
    spec.patients = 40;
    spec.days = 6;
    base.per_relation_max_steps = 1;
    base.escalation_factor = 2.0;
    base.max_retries = 1;
  }

  auto context = scenarios::BuildSyntheticContext(spec);
  ASSERT_TRUE(context.ok()) << context.status();
  quality::Assessor assessor(&*context);
  auto serial = assessor.Assess(base);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const std::string serial_text = serial->ToString();
  const std::string serial_json = serial->ToJson();
  if (seed % 3 == 0) {
    EXPECT_EQ(serial->completeness, Completeness::kTruncated)
        << "expected the forced step cap to truncate";
    EXPECT_FALSE(serial->degraded.empty());
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    quality::AssessOptions opts = base;
    opts.pool = &pool;
    auto pooled = assessor.Assess(opts);
    ASSERT_TRUE(pooled.ok()) << pooled.status();
    EXPECT_EQ(pooled->ToString(), serial_text)
        << "report text diverged at threads=" << threads;
    EXPECT_EQ(pooled->ToJson(), serial_json)
        << "report json diverged at threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssessorDiff, ::testing::Range(0u, 36u));

// --- ThreadPool unit coverage -------------------------------------------

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SubmitRunsEverythingBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queues
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroAndOneItemShortCircuit) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

}  // namespace
}  // namespace mdqa
