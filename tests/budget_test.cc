// Unit and integration coverage for the execution-budget subsystem:
// counters, deadlines, cancellation tokens, fault injection, derived
// budgets, and the graceful-truncation contract each engine honors —
// partial results are sound under-approximations, never garbage.

#include "base/budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "datalog/chase.h"
#include "datalog/parser.h"
#include "md/dimension.h"
#include "qa/chase_qa.h"
#include "qa/deterministic_ws.h"
#include "qa/engines.h"
#include "qa/rewriter.h"
#include "quality/assessor.h"

namespace mdqa {
namespace {

using datalog::ChaseOptions;
using datalog::ChaseStats;
using datalog::ChaseStop;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;

TEST(CancellationToken, CancelAndReset) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(FaultInjector, UnarmedProbesPass) {
  FaultInjector faults;
  EXPECT_TRUE(faults.Hit("anything").ok());
  EXPECT_EQ(faults.HitCount("anything"), 1u);
  EXPECT_EQ(faults.HitCount("never-hit"), 0u);
}

TEST(FaultInjector, TripsAtTheArmedHitWindow) {
  FaultInjector faults;
  faults.Arm("p", 2, Status::Internal("boom"), 2);  // hits 2 and 3 trip
  EXPECT_TRUE(faults.Hit("p").ok());
  EXPECT_EQ(faults.Hit("p").code(), StatusCode::kInternal);
  EXPECT_EQ(faults.Hit("p").code(), StatusCode::kInternal);
  EXPECT_TRUE(faults.Hit("p").ok());
  // Probes are independent.
  EXPECT_TRUE(faults.Hit("q").ok());
}

TEST(FaultInjector, AlwaysKeepsTripping) {
  FaultInjector faults;
  faults.Arm("p", 1, Status::ResourceExhausted("injected"),
             FaultInjector::kAlways);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(faults.Hit("p").code(), StatusCode::kResourceExhausted);
  }
  faults.Reset();
  EXPECT_TRUE(faults.Hit("p").ok());
}

// The serve-layer contract (see the FaultInjector class comment): one
// injector shared by concurrent request handlers plus a chaos thread that
// re-arms probes mid-traffic. Under TSan (scripts/check.sh --tsan) this
// is the data-race regression test; under any build it checks the exact-
// ordinal guarantee — hit counts are never lost or double-counted, and
// the armed window [trip_at, trip_at + count) trips exactly `count`
// times no matter how hits interleave across threads.
TEST(FaultInjector, ConcurrentHitsKeepExactOrdinals) {
  FaultInjector faults;
  constexpr int kThreads = 8;
  constexpr uint64_t kHitsPerThread = 2000;
  constexpr uint64_t kWindow = 500;
  faults.Arm("shared", 1000, Status::ResourceExhausted("injected"), kWindow);

  std::atomic<uint64_t> trips{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&faults, &trips] {
      for (uint64_t i = 0; i < kHitsPerThread; ++i) {
        if (!faults.Hit("shared").ok()) {
          trips.fetch_add(1, std::memory_order_relaxed);
        }
        // Independent probes from the same threads must not interfere.
        faults.Hit("other");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(faults.HitCount("shared"), kThreads * kHitsPerThread);
  EXPECT_EQ(faults.HitCount("other"), kThreads * kHitsPerThread);
  EXPECT_EQ(trips.load(), kWindow);
}

// Arm/Reset racing a stream of hits: TSan's target. The assertable
// invariant is weaker (which hits land inside the re-armed window is
// scheduling-dependent) — no crash, no race report, and the final Reset
// leaves a clean slate.
TEST(FaultInjector, RearmAndResetRaceHitStream) {
  FaultInjector faults;
  std::atomic<bool> stop{false};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&faults, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        faults.Hit("chaos");
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    faults.Arm("chaos", 10, Status::Internal("injected"),
               FaultInjector::kAlways);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    faults.Reset();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : hitters) t.join();
  faults.Reset();
  EXPECT_EQ(faults.HitCount("chaos"), 0u);
  EXPECT_TRUE(faults.Hit("chaos").ok());
}

TEST(ExecutionBudget, FactLimitTripsExactlyWhenExceeded) {
  ExecutionBudget budget;
  budget.set_max_facts(3);
  EXPECT_TRUE(budget.ChargeFacts(3).ok());
  Status s = budget.ChargeFacts(1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ExecutionBudget::IsTruncation(s));
  EXPECT_EQ(budget.facts(), 4u);
  budget.ResetUsage();
  EXPECT_EQ(budget.facts(), 0u);
  EXPECT_TRUE(budget.ChargeFacts(3).ok());
}

TEST(ExecutionBudget, UnlimitedCountersNeverTrip) {
  ExecutionBudget budget;
  EXPECT_TRUE(budget.ChargeFacts(1u << 20).ok());
  EXPECT_TRUE(budget.ChargeSteps(1u << 20).ok());
  EXPECT_TRUE(budget.ChargeRounds(1u << 20).ok());
  EXPECT_TRUE(budget.Check("probe").ok());
}

TEST(ExecutionBudget, MemoryHighWaterAndLimit) {
  ExecutionBudget budget;
  EXPECT_TRUE(budget.NoteMemory(100).ok());
  EXPECT_TRUE(budget.NoteMemory(50).ok());
  EXPECT_EQ(budget.memory_high_water(), 100u);
  budget.set_max_memory_bytes(200);
  EXPECT_TRUE(budget.NoteMemory(150).ok());
  EXPECT_EQ(budget.NoteMemory(300).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.memory_high_water(), 300u);
}

TEST(ExecutionBudget, ExpiredDeadlineTripsFirstCheck) {
  ExecutionBudget budget;
  budget.SetDeadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  // The amortized tick counter starts at zero, so the very first Check
  // reads the clock — expired deadlines are deterministic in tests.
  Status s = budget.Check("probe");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("deadline"), std::string::npos);
  EXPECT_EQ(budget.CheckNow("probe").code(),
            StatusCode::kResourceExhausted);
}

TEST(ExecutionBudget, CancellationWinsOverCounters) {
  CancellationToken token;
  ExecutionBudget budget;
  budget.set_cancellation(&token);
  EXPECT_TRUE(budget.Check("probe").ok());
  token.Cancel();
  Status s = budget.Check("probe");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_TRUE(ExecutionBudget::IsTruncation(s));
}

TEST(ExecutionBudget, FaultProbesFireThroughCheck) {
  FaultInjector faults;
  faults.Arm("engine:probe", 1, Status::Internal("injected"));
  ExecutionBudget budget;
  budget.set_fault_injector(&faults);
  EXPECT_EQ(budget.Check("engine:probe").code(), StatusCode::kInternal);
  EXPECT_TRUE(budget.Check("engine:probe").ok());  // one-shot window
  EXPECT_TRUE(budget.Check("other:probe").ok());
  EXPECT_FALSE(ExecutionBudget::IsTruncation(Status::Internal("x")));
}

TEST(ExecutionBudget, InheritControlsSharesControlsNotUsage) {
  CancellationToken token;
  FaultInjector faults;
  ExecutionBudget parent;
  parent.set_cancellation(&token);
  parent.set_fault_injector(&faults);
  parent.SetDeadlineAfter(std::chrono::milliseconds(60'000));
  ASSERT_TRUE(parent.ChargeFacts(10).ok());

  ExecutionBudget child;
  child.InheritControlsFrom(parent);
  EXPECT_TRUE(child.has_deadline());
  EXPECT_EQ(child.facts(), 0u) << "usage counters must start fresh";
  token.Cancel();
  EXPECT_EQ(child.Check("probe").code(), StatusCode::kCancelled);
}

// --- Chase under budget: graceful truncation, sound partial instance ---

Program TransitiveClosure() {
  auto p = Parser::ParseProgram(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5). E(5, 6).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(ChaseBudget, FactLimitYieldsTruncatedSubset) {
  Program program = TransitiveClosure();
  Instance full = Instance::FromProgram(program);
  ChaseStats full_stats;
  ASSERT_TRUE(
      datalog::Chase::Run(program, &full, ChaseOptions(), &full_stats).ok());
  ASSERT_EQ(full_stats.completeness, Completeness::kComplete);

  ExecutionBudget budget;
  budget.set_max_facts(3);
  ChaseOptions options;
  options.budget = &budget;
  Instance partial = Instance::FromProgram(program);
  ChaseStats stats;
  ASSERT_TRUE(
      datalog::Chase::Run(program, &partial, options, &stats).ok());
  EXPECT_EQ(stats.completeness, Completeness::kTruncated);
  EXPECT_EQ(stats.stop, ChaseStop::kBudget);
  EXPECT_FALSE(stats.reached_fixpoint);
  EXPECT_FALSE(stats.interruption.ok());
  EXPECT_NE(stats.ToString().find("truncated"), std::string::npos);
  // Sound: every fact of the truncated run occurs in the full chase,
  // and something was still produced.
  EXPECT_GT(partial.TotalFacts(), 0u);
  EXPECT_LT(partial.TotalFacts(), full.TotalFacts());
  uint32_t t = program.vocab()->FindPredicate("T");
  for (const datalog::Atom& f : partial.Facts(t)) {
    EXPECT_TRUE(full.Contains(f));
  }
}

TEST(ChaseBudget, PreCancelledTokenStopsImmediately) {
  Program program = TransitiveClosure();
  CancellationToken token;
  token.Cancel();
  ExecutionBudget budget;
  budget.set_cancellation(&token);
  ChaseOptions options;
  options.budget = &budget;
  Instance inst = Instance::FromProgram(program);
  ChaseStats stats;
  ASSERT_TRUE(datalog::Chase::Run(program, &inst, options, &stats).ok());
  EXPECT_EQ(stats.completeness, Completeness::kTruncated);
  EXPECT_EQ(stats.stop, ChaseStop::kCancelled);
  EXPECT_EQ(stats.interruption.code(), StatusCode::kCancelled);
  // The first round was refused, so none is counted.
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.tgd_firings, 0u);
}

TEST(ChaseBudget, InjectedHardFaultIsARealError) {
  Program program = TransitiveClosure();
  FaultInjector faults;
  faults.Arm("chase:round", 1, Status::Internal("injected fault"));
  ExecutionBudget budget;
  budget.set_fault_injector(&faults);
  ChaseOptions options;
  options.budget = &budget;
  Instance inst = Instance::FromProgram(program);
  ChaseStats stats;
  Status s = datalog::Chase::Run(program, &inst, options, &stats);
  EXPECT_EQ(s.code(), StatusCode::kInternal)
      << "non-budget faults must not be absorbed as truncation";
}

// A round counts only once the budget admits it: a trip at the start of
// a round leaves the count at the last round that ran.
TEST(ChaseBudget, PreCancelledExtendReportsTheSeedLevel) {
  Program program = TransitiveClosure();
  Instance inst = Instance::FromProgram(program);
  ChaseStats base;
  ASSERT_TRUE(
      datalog::Chase::Run(program, &inst, ChaseOptions(), &base).ok());
  ASSERT_TRUE(base.frontier.valid);

  CancellationToken token;
  token.Cancel();
  ExecutionBudget budget;
  budget.set_cancellation(&token);
  ChaseOptions options;
  options.budget = &budget;
  auto delta = Parser::ParseGroundAtom("E(6, 7)", program.mutable_vocab());
  ASSERT_TRUE(delta.ok()) << delta.status();
  ChaseStats stats;
  ASSERT_TRUE(datalog::Chase::Extend(program, &inst, base.frontier, {*delta},
                                     options, &stats)
                  .ok());
  EXPECT_EQ(stats.stop, ChaseStop::kCancelled);
  // The delta was seeded one level above the frontier; no round ran.
  EXPECT_EQ(stats.rounds, base.frontier.round + 1);
  EXPECT_EQ(stats.tgd_firings, 0u);
}

// --- The three engines return sound partial answer sets ---

TEST(EngineBudget, ChaseEngineTruncatesGracefully) {
  Program program = TransitiveClosure();
  auto query = Parser::ParseQuery("Q(X, Y) :- T(X, Y).",
                                  program.mutable_vocab());
  ASSERT_TRUE(query.ok());
  auto full = qa::Answer(qa::Engine::kChase, program, *query);
  ASSERT_TRUE(full.ok());

  ExecutionBudget budget;
  budget.set_max_facts(3);
  qa::AnswerOptions aopts;
  aopts.budget = &budget;
  auto partial = qa::Answer(qa::Engine::kChase, program, *query, aopts);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->completeness, Completeness::kTruncated);
  EXPECT_FALSE(partial->interruption.ok());
  EXPECT_TRUE(partial->IsSubsetOf(*full));
  EXPECT_LT(partial->size(), full->size());
}

TEST(EngineBudget, WsEngineTruncatesGracefully) {
  Program program = TransitiveClosure();
  auto query = Parser::ParseQuery("Q(X, Y) :- T(X, Y).",
                                  program.mutable_vocab());
  ASSERT_TRUE(query.ok());
  auto full = qa::Answer(qa::Engine::kDeterministicWs, program, *query);
  ASSERT_TRUE(full.ok());

  ExecutionBudget budget;
  budget.set_max_steps(2);
  qa::AnswerOptions aopts;
  aopts.budget = &budget;
  auto partial =
      qa::Answer(qa::Engine::kDeterministicWs, program, *query, aopts);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->completeness, Completeness::kTruncated);
  EXPECT_TRUE(partial->IsSubsetOf(*full));
}

TEST(EngineBudget, RewritingEngineTruncatesGracefully) {
  // Guarded existential rules keep the rewriting non-trivial.
  auto p = Parser::ParseProgram(
      "PW(\"w1\", \"tom\"). UW(\"std\", \"w1\").\n"
      "PU(U, P) :- PW(W, P), UW(U, W).\n");
  ASSERT_TRUE(p.ok());
  auto query = Parser::ParseQuery("Q(U, P) :- PU(U, P).",
                                  p->mutable_vocab());
  ASSERT_TRUE(query.ok());
  auto full = qa::Answer(qa::Engine::kRewriting, *p, *query);
  ASSERT_TRUE(full.ok());

  ExecutionBudget budget;
  budget.set_max_steps(1);  // one rewrite iteration, then truncate
  qa::AnswerOptions aopts;
  aopts.budget = &budget;
  auto partial = qa::Answer(qa::Engine::kRewriting, *p, *query, aopts);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->completeness, Completeness::kTruncated);
  EXPECT_TRUE(partial->IsSubsetOf(*full));
}

TEST(EngineBudget, CrossCheckAcceptsTruncatedSubset) {
  Program program = TransitiveClosure();
  auto query = Parser::ParseQuery("Q(X, Y) :- T(X, Y).",
                                  program.mutable_vocab());
  ASSERT_TRUE(query.ok());
  auto full = qa::Answer(qa::Engine::kChase, program, *query);
  ASSERT_TRUE(full.ok());

  // The budget's counters are shared across the engines, so both runs
  // end up truncated; the truncation-aware comparison must not flag a
  // disagreement, and whatever is returned stays sound.
  ExecutionBudget budget;
  budget.set_max_facts(3);
  qa::AnswerOptions aopts;
  aopts.budget = &budget;
  auto agreed = qa::CrossCheck(
      program, *query,
      {qa::Engine::kChase, qa::Engine::kDeterministicWs}, aopts);
  ASSERT_TRUE(agreed.ok()) << agreed.status();
  EXPECT_TRUE(agreed->IsSubsetOf(*full));
}

TEST(EngineBudget, CrossCheckPrefersTheCompleteEngine) {
  Program program = TransitiveClosure();
  auto query = Parser::ParseQuery("Q(X, Y) :- T(X, Y).",
                                  program.mutable_vocab());
  ASSERT_TRUE(query.ok());
  auto full = qa::Answer(qa::Engine::kChase, program, *query);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->completeness, Completeness::kComplete);
  // An unbudgeted cross-check agrees exactly and stays complete.
  auto agreed = qa::CrossCheck(
      program, *query, {qa::Engine::kChase, qa::Engine::kDeterministicWs});
  ASSERT_TRUE(agreed.ok()) << agreed.status();
  EXPECT_EQ(agreed->completeness, Completeness::kComplete);
  EXPECT_EQ(*agreed, *full);
}

// --- Cooperative cancellation from a second thread stops all engines ---

class EngineCancellation : public ::testing::TestWithParam<qa::Engine> {};

TEST_P(EngineCancellation, CancelFromAnotherThreadStopsTheRun) {
  // The token is flipped on a second thread (joined before the run, so
  // the test is deterministic): every engine must observe the cancel at
  // its first budget probe and wind down with a truncated result.
  auto p = Parser::ParseProgram(
      "E(1, 2). E(2, 3). E(3, 1). \n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  auto query = Parser::ParseQuery("Q(X) :- T(X, Y).", p->mutable_vocab());
  ASSERT_TRUE(query.ok());

  CancellationToken token;
  ExecutionBudget budget;
  budget.set_cancellation(&token);
  std::thread canceller([&token]() { token.Cancel(); });
  canceller.join();
  qa::AnswerOptions aopts;
  aopts.budget = &budget;
  auto answers = qa::Answer(GetParam(), *p, *query, aopts);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->completeness, Completeness::kTruncated);
  EXPECT_EQ(answers->interruption.code(), StatusCode::kCancelled);
}

TEST(EngineCancellation, MidRunCancelStopsADivergentChase) {
  // Unbounded null invention: R(Y, Z) :- R(X, Y) never reaches a
  // fixpoint, so the only way this returns promptly is the cancellation
  // token being honored mid-run.
  auto p = Parser::ParseProgram(
      "R(1, 2).\n"
      "R(Y, Z) :- R(X, Y).\n");
  ASSERT_TRUE(p.ok()) << p.status();

  CancellationToken token;
  ExecutionBudget budget;
  budget.set_cancellation(&token);
  std::thread canceller([&token]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  ChaseOptions options;
  options.budget = &budget;
  options.check_constraints = false;
  Instance inst = Instance::FromProgram(*p);
  ChaseStats stats;
  Status s = datalog::Chase::Run(*p, &inst, options, &stats);
  canceller.join();
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(stats.completeness, Completeness::kTruncated);
  EXPECT_EQ(stats.stop, ChaseStop::kCancelled);
  EXPECT_GT(inst.TotalFacts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineCancellation,
                         ::testing::Values(qa::Engine::kChase,
                                           qa::Engine::kDeterministicWs,
                                           qa::Engine::kRewriting),
                         [](const auto& info) {
                           std::string name =
                               qa::EngineToString(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Assessor: per-relation fault isolation and degradation ---

// Two assessed relations over one tiny dimension, so one relation can
// fail while the other is still reported.
quality::QualityContext TwoRelationContext() {
  auto ontology = std::make_shared<core::MdOntology>();
  auto dim = md::DimensionBuilder("Geo")
                 .Category("City")
                 .Category("Region")
                 .Edge("City", "Region")
                 .Member("City", "c1")
                 .Member("City", "c2")
                 .Member("Region", "good")
                 .Member("Region", "bad")
                 .Link("c1", "good")
                 .Link("c2", "bad")
                 .Build()
                 .value();
  EXPECT_TRUE(ontology->AddDimension(std::move(dim)).ok());
  auto stores = md::CategoricalRelation::Create(
      "StoreCity",
      {md::CategoricalAttribute::Plain("Store"),
       md::CategoricalAttribute::Categorical("City", "Geo", "City")});
  EXPECT_TRUE(stores.ok());
  EXPECT_TRUE(stores->InsertText({"s1", "c1"}).ok());
  EXPECT_TRUE(stores->InsertText({"s2", "c2"}).ok());
  EXPECT_TRUE(
      ontology->AddCategoricalRelation(std::move(stores).value()).ok());

  quality::QualityContext context(std::move(ontology));
  Database db;
  EXPECT_TRUE(db.InsertText("Sales", {"s1", "10"}).ok());
  EXPECT_TRUE(db.InsertText("Sales", {"s2", "20"}).ok());
  EXPECT_TRUE(db.InsertText("Returns", {"s1", "1"}).ok());
  EXPECT_TRUE(db.InsertText("Returns", {"s2", "2"}).ok());
  EXPECT_TRUE(context.SetDatabase(std::move(db)).ok());
  EXPECT_TRUE(context.MapRelationToContext("Sales", "SalesC").ok());
  EXPECT_TRUE(context.MapRelationToContext("Returns", "ReturnsC").ok());
  EXPECT_TRUE(context
                  .DefineQualityVersion(
                      "Sales", "SalesQ",
                      "SalesQ(S, A) :- SalesC(S, A), StoreCity(S, C), "
                      "RegionCity(\"good\", C).")
                  .ok());
  EXPECT_TRUE(context
                  .DefineQualityVersion(
                      "Returns", "ReturnsQ",
                      "ReturnsQ(S, A) :- ReturnsC(S, A), StoreCity(S, C), "
                      "RegionCity(\"good\", C).")
                  .ok());
  return context;
}

TEST(AssessorDegradation, OneFailedRelationDoesNotSinkTheReport) {
  quality::QualityContext context = TwoRelationContext();
  // AssessedRelations is sorted, so "Returns" gates first: trip its gate
  // on both attempts (hits 1 and 2), let "Sales" (hit 3) through.
  FaultInjector faults;
  faults.Arm("assessor:relation", 1,
             Status::ResourceExhausted("injected relation fault"), 2);
  ExecutionBudget budget;
  budget.set_fault_injector(&faults);
  quality::AssessOptions options;
  options.budget = &budget;
  options.max_retries = 1;
  auto report = quality::Assessor(&context).Assess(options);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->degraded.size(), 1u);
  EXPECT_EQ(report->degraded[0].relation, "Returns");
  EXPECT_EQ(report->degraded[0].status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(report->degraded[0].attempts, 2);
  ASSERT_EQ(report->per_relation.size(), 1u);
  EXPECT_EQ(report->per_relation[0].relation, "Sales");
  EXPECT_EQ(report->completeness, Completeness::kTruncated);
  EXPECT_FALSE(report->interruption.ok());
  // Both renderings surface the degradation.
  EXPECT_NE(report->ToString().find("DEGRADED Returns"),
            std::string::npos);
  EXPECT_NE(report->ToJson().find("\"degraded\""), std::string::npos);
  EXPECT_NE(report->ToJson().find("Returns"), std::string::npos);
}

TEST(AssessorDegradation, RetryUnderEscalatedBudgetRecovers) {
  quality::QualityContext context = TwoRelationContext();
  // A one-shot fault: the first attempt at the first relation trips, the
  // retry (and every later relation) succeeds — nothing is degraded.
  FaultInjector faults;
  faults.Arm("assessor:relation", 1,
             Status::ResourceExhausted("transient fault"));
  ExecutionBudget budget;
  budget.set_fault_injector(&faults);
  quality::AssessOptions options;
  options.budget = &budget;
  options.max_retries = 1;
  auto report = quality::Assessor(&context).Assess(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->degraded.empty());
  EXPECT_EQ(report->per_relation.size(), 2u);
  EXPECT_GE(faults.HitCount("assessor:relation"), 3u);
}

TEST(AssessorDegradation, TinyStepCapEscalatesUntilItFits) {
  quality::QualityContext context = TwoRelationContext();
  quality::AssessOptions options;
  options.per_relation_max_steps = 1;  // near-certain to trip at first
  options.escalation_factor = 100'000.0;
  options.max_retries = 1;
  auto report = quality::Assessor(&context).Assess(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->degraded.empty())
      << "escalated retry should have lifted the cap";
  EXPECT_EQ(report->per_relation.size(), 2u);
}

TEST(AssessorDegradation, CancellationDegradesTheRemainingRelations) {
  quality::QualityContext context = TwoRelationContext();
  CancellationToken token;
  token.Cancel();
  ExecutionBudget budget;
  budget.set_cancellation(&token);
  quality::AssessOptions options;
  options.budget = &budget;
  auto report = quality::Assessor(&context).Assess(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->per_relation.empty());
  ASSERT_EQ(report->degraded.size(), 2u);
  for (const quality::RelationFailure& f : report->degraded) {
    EXPECT_EQ(f.status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(report->completeness, Completeness::kTruncated);
}

TEST(AssessorDegradation, CompleteRunStaysCompleteInJson) {
  quality::QualityContext context = TwoRelationContext();
  auto report = quality::Assessor(&context).Assess();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->completeness, Completeness::kComplete);
  EXPECT_TRUE(report->degraded.empty());
  EXPECT_NE(report->ToJson().find("\"completeness\":\"complete\""),
            std::string::npos);
}

}  // namespace
}  // namespace mdqa
