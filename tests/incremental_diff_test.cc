// Differential incremental-vs-from-scratch harness: over hundreds of
// seeded update sequences, resuming the chase from a captured frontier
// (`Chase::Extend` / `ChaseQa::Extend` / `PreparedContext::ApplyUpdate` +
// `Assessor::Reassess`) must produce results *byte-identical* to tearing
// everything down and re-chasing the extended extensional set from
// scratch — same instance render, same certain answers, same assessment
// reports (ToString AND ToJson), serially and with a thread pool at 1
// and 4 workers. Null-creating programs compare via the canonical null
// renaming (`Instance::ToCanonicalString`), since the incremental and
// the from-scratch runs mint their nulls in different orders.
//
// Generators are shared with the other property harnesses via
// src/testgen/generators.h — everything is a pure function of the seed, so
// failures reproduce from the test parameter alone. See
// docs/incremental.md for the design and the fallback matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/cost_model.h"
#include "base/thread_pool.h"
#include "datalog/chase.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "testgen/generators.h"
#include "testgen/scenario.h"
#include "qa/chase_qa.h"
#include "quality/assessor.h"
#include "scenarios/hospital.h"
#include "scenarios/synthetic.h"

namespace mdqa {
namespace {

using datalog::Atom;
using datalog::Chase;
using datalog::ChaseOptions;
using datalog::ChaseStats;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;
using qa::ChaseQa;
using testgen::ScenarioFamily;
using testgen::UpdateSequence;

// Certain answers rendered as sorted display strings, so engines over
// *different* vocabularies (the incremental one interned delta constants
// late; the from-scratch one interned them in program order) compare
// byte for byte.
std::vector<std::string> RenderAnswers(const ChaseQa& engine,
                                       Program* program,
                                       const std::string& query_text) {
  auto query = Parser::ParseQuery(query_text, program->mutable_vocab());
  EXPECT_TRUE(query.ok()) << query.status() << " on " << query_text;
  if (!query.ok()) return {};
  auto answers = engine.Answers(*query);
  EXPECT_TRUE(answers.ok()) << answers.status();
  if (!answers.ok()) return {};
  std::vector<std::string> out;
  for (const auto& tuple : *answers) {
    std::string line;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) line += ", ";
      line += program->vocab()->TermToString(tuple[i]);
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// One engine extended batch by batch against a from-scratch rebuild per
// batch. `pool_threads > 0` hands the incremental side's ChaseOptions a
// pool of that size while the from-scratch side has none. The chase no
// longer reads `ChaseOptions::pool`; these cells pin that the field stays
// inert until it is deleted.
void ExpectExtendMatchesRebuild(uint32_t seed, size_t pool_threads) {
  const UpdateSequence s = testgen::GenerateUpdateSequence(seed);
  ThreadPool pool(pool_threads == 0 ? 1 : pool_threads);
  ChaseOptions options;
  if (pool_threads > 0) options.pool = &pool;
  auto program = Parser::ParseProgram(s.base.program_text);
  ASSERT_TRUE(program.ok()) << program.status() << "\n" << s.base.program_text;
  auto inc = ChaseQa::Create(*program, options);
  ASSERT_TRUE(inc.ok()) << inc.status();

  std::string accumulated = s.base.program_text;
  for (size_t b = 0; b < s.batches.size(); ++b) {
    std::vector<Atom> atoms;
    for (const std::string& stmt : s.batches[b]) {
      accumulated += stmt + ".\n";
      auto atom = Parser::ParseGroundAtom(stmt, program->mutable_vocab());
      ASSERT_TRUE(atom.ok()) << atom.status() << " on " << stmt;
      atoms.push_back(*atom);
    }
    auto stats = inc->Extend(atoms);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_TRUE(stats->incremental);
    // The generated families (plain/recursive Datalog, single-head
    // existentials) are all within the incremental path's coverage.
    EXPECT_FALSE(stats->extend_fallback) << stats->fallback_reason;

    auto rebuilt_program = Parser::ParseProgram(accumulated);
    ASSERT_TRUE(rebuilt_program.ok()) << rebuilt_program.status();
    auto full = ChaseQa::Create(*rebuilt_program, ChaseOptions{});
    ASSERT_TRUE(full.ok()) << full.status();

    if (s.base.downward) {
      EXPECT_EQ(inc->instance().ToCanonicalString(),
                full->instance().ToCanonicalString())
          << "instance diverged at seed=" << seed << " batch=" << b
          << " threads=" << pool_threads << "\nprogram:\n"
          << accumulated;
    } else {
      EXPECT_EQ(inc->instance().ToString(), full->instance().ToString())
          << "instance diverged at seed=" << seed << " batch=" << b
          << " threads=" << pool_threads << "\nprogram:\n"
          << accumulated;
    }
    for (const std::string& text : s.base.queries) {
      EXPECT_EQ(RenderAnswers(*inc, &*program, text),
                RenderAnswers(*full, &*rebuilt_program, text))
          << "answers diverged at seed=" << seed << " batch=" << b
          << " on " << text;
    }
  }
}

class IncrementalChaseDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IncrementalChaseDiff, SerialExtendMatchesRebuild) {
  ExpectExtendMatchesRebuild(GetParam(), 0);
}

TEST_P(IncrementalChaseDiff, PooledExtendMatchesRebuildOneThread) {
  ExpectExtendMatchesRebuild(GetParam(), 1);
}

TEST_P(IncrementalChaseDiff, PooledExtendMatchesRebuildFourThreads) {
  ExpectExtendMatchesRebuild(GetParam(), 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalChaseDiff,
                         ::testing::Range(0u, 210u));

// --- Extend contract: precondition + fallback coverage ------------------

TEST(ExtendContract, InvalidFrontierRejected) {
  auto program = Parser::ParseProgram("P(\"a\").\nQ(X) :- P(X).\n");
  ASSERT_TRUE(program.ok());
  Instance instance = Instance::FromProgram(*program);
  datalog::ChaseFrontier frontier;  // never captured
  ChaseStats stats;
  Status status = Chase::Extend(*program, &instance, frontier, {},
                                ChaseOptions{}, &stats);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
}

TEST(ExtendContract, StaleFrontierRejected) {
  auto program = Parser::ParseProgram("P(\"a\").\nQ(X) :- P(X).\n");
  ASSERT_TRUE(program.ok());
  Instance instance = Instance::FromProgram(*program);
  ChaseStats stats;
  ASSERT_TRUE(Chase::Run(*program, &instance, ChaseOptions{}, &stats).ok());
  ASSERT_TRUE(stats.frontier.valid);
  // Any out-of-band mutation invalidates the captured frontier.
  auto atom = Parser::ParseGroundAtom("P(\"b\")", program->mutable_vocab());
  ASSERT_TRUE(atom.ok());
  instance.AddFact(*atom, 0);
  ChaseStats stats2;
  Status status = Chase::Extend(*program, &instance, stats.frontier, {*atom},
                                ChaseOptions{}, &stats2);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("stale"), std::string::npos) << status;
}

// Each fallback is exact (matches the from-scratch rebuild) and recorded.
void ExpectFallbackMatchesRebuild(const std::string& base_text,
                                  const std::string& delta_stmt,
                                  const ChaseOptions& options,
                                  const std::string& reason_substr) {
  auto program = Parser::ParseProgram(base_text);
  ASSERT_TRUE(program.ok()) << program.status();
  auto inc = ChaseQa::Create(*program, options);
  ASSERT_TRUE(inc.ok()) << inc.status();
  auto atom = Parser::ParseGroundAtom(delta_stmt, program->mutable_vocab());
  ASSERT_TRUE(atom.ok()) << atom.status();
  auto stats = inc->Extend({*atom});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->extend_fallback);
  EXPECT_NE(stats->fallback_reason.find(reason_substr), std::string::npos)
      << stats->fallback_reason;

  auto rebuilt = Parser::ParseProgram(base_text + delta_stmt + ".\n");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto full = ChaseQa::Create(*rebuilt, options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(inc->instance().ToCanonicalString(),
            full->instance().ToCanonicalString());
}

TEST(ExtendContract, NegationFallsBackExactly) {
  ExpectFallbackMatchesRebuild(
      "P(\"a\").\nP(\"b\").\nR(\"a\").\nQ(X) :- P(X), not R(X).\n",
      "R(\"b\")", ChaseOptions{}, "negation");
}

// The narrowed no-fallback cases: exact (matches the from-scratch
// rebuild) *without* leaving the delta path.
void ExpectNoFallbackMatchesRebuild(const std::string& base_text,
                                    const std::string& delta_stmt,
                                    const ChaseOptions& options) {
  auto program = Parser::ParseProgram(base_text);
  ASSERT_TRUE(program.ok()) << program.status();
  auto inc = ChaseQa::Create(*program, options);
  ASSERT_TRUE(inc.ok()) << inc.status();
  auto atom = Parser::ParseGroundAtom(delta_stmt, program->mutable_vocab());
  ASSERT_TRUE(atom.ok()) << atom.status();
  auto stats = inc->Extend({*atom});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->extend_fallback) << stats->fallback_reason;

  auto rebuilt = Parser::ParseProgram(base_text + delta_stmt + ".\n");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto full = ChaseQa::Create(*rebuilt, options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(inc->instance().ToCanonicalString(),
            full->instance().ToCanonicalString());
}

TEST(ExtendContract, NonSeparableEgdFallsBackExactly) {
  // egds_separable defaults to false, the EGD can merge labeled nulls
  // (Z sits at an affected position), and the delta reaches it through
  // U: the extension must not assume the TGD/EGD alternation converges.
  ExpectFallbackMatchesRebuild(
      "T(\"a\").\nV(\"a\", \"b\").\nU(X, Z) :- T(X).\n"
      "Z = W :- U(X, Z), V(X, W).\n",
      "T(\"b\")", ChaseOptions{}, "separable");
}

TEST(ExtendContract, NullFreeEgdStaysIncremental) {
  // The null-flow analysis proves this EGD null-free (the program has no
  // existentials, so no position ever carries a labeled null): it can
  // only no-op or report a constant clash, both of which the delta path
  // handles — no declared separability needed. This family fell back
  // before the position-granular analysis.
  ExpectNoFallbackMatchesRebuild(
      "T(\"w1\", \"a\").\nT(\"w2\", \"b\").\nS(X) :- T(W, X).\n"
      "X = Y :- T(W, X), T(W, Y).\n",
      "T(\"w3\", \"c\")", ChaseOptions{});
}

TEST(ExtendContract, UnreachableEgdStaysIncremental) {
  // The EGD *can* merge nulls (Z is existential), but the delta's
  // predicate-dependency closure ({P, S}) never reaches its body (U):
  // the alternation is provably a no-op for this update.
  ExpectNoFallbackMatchesRebuild(
      "P(\"a\").\nN(\"n1\").\nU(X, Z) :- N(X).\n"
      "Z = W :- U(X, Z), U(X, W).\nS(X) :- P(X).\n",
      "P(\"b\")", ChaseOptions{});
}

TEST(ExtendContract, ReachableForm10FallsBackExactly) {
  // A form-(10)-shaped rule (multi-atom head with existentials) fed by
  // the delta still forces the re-chase.
  ExpectFallbackMatchesRebuild(
      "P(\"a\").\nR(X, Y), Q(Y) :- P(X).\n",
      "P(\"b\")", ChaseOptions{}, "form-(10)");
}

TEST(ExtendContract, UnfedForm10StaysIncremental) {
  // The same rule shape fed only by M, which the delta (over P) cannot
  // feed: it never fires during the extension, so the delta path runs.
  // This family fell back before the null-flow analysis.
  ExpectNoFallbackMatchesRebuild(
      "P(\"a\").\nM(\"m\").\nR(X, Y), Q(Y) :- M(X).\nS(X) :- P(X).\n",
      "P(\"b\")", ChaseOptions{});
}

// --- Quality layer: ApplyUpdate + Reassess vs a fresh full assessment ---

Relation CopyRelation(const Database& db, const std::string& name) {
  auto rel = db.GetRelation(name);
  EXPECT_TRUE(rel.ok()) << rel.status();
  return **rel;
}

class QualityUpdateDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QualityUpdateDiff, ReassessMatchesFullAssess) {
  const uint32_t seed = GetParam();
  scenarios::SyntheticSpec spec;
  spec.institutions = 1 + static_cast<int>(seed % 2);
  spec.units_per_institution = 1 + static_cast<int>(seed % 3);
  spec.wards_per_unit = 1 + static_cast<int>((seed / 2) % 2);
  spec.patients = 4 + static_cast<int>(seed % 4);
  spec.days = 2 + static_cast<int>(seed % 2);
  spec.include_downward_rules = (seed % 2) == 0;
  spec.seed = seed * 131 + 5;

  auto context = scenarios::BuildSyntheticContext(spec);
  ASSERT_TRUE(context.ok()) << context.status();
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  quality::Assessor assessor(&*context);
  auto previous = assessor.Assess();
  ASSERT_TRUE(previous.ok()) << previous.status();

  // Seeded batch: a few inserted measurements (existing times, mix of
  // known and brand-new patients); every third seed also deletes an
  // existing row, exercising the recorded full-re-chase fallback.
  std::mt19937 rng(seed * 977 + 3);
  quality::RelationDelta delta;
  delta.relation = "SMeasurements";
  const int n_inserts = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n_inserts; ++i) {
    const int day = static_cast<int>(rng() % static_cast<uint32_t>(spec.days));
    const int patient =
        static_cast<int>(rng() % static_cast<uint32_t>(spec.patients + 3));
    const double value = 36.0 + static_cast<double>(rng() % 40) / 10.0;
    delta.insert_rows.push_back({Value::Str("st" + std::to_string(day)),
                                 Value::Str("sp" + std::to_string(patient)),
                                 Value::Real(value)});
  }
  const bool with_delete = (seed % 3) == 0;
  if (with_delete) {
    const Relation victim = CopyRelation(prepared->database(),
                                         "SMeasurements");
    ASSERT_GT(victim.size(), 0u);
    delta.delete_rows.push_back(
        victim.row(rng() % static_cast<uint32_t>(victim.size())));
  }
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));

  auto next = prepared->ApplyUpdate(batch);
  ASSERT_TRUE(next.ok()) << next.status();
  if (with_delete) {
    EXPECT_TRUE(next->chase_stats().extend_fallback)
        << "deletions must take the recorded full-re-chase path";
  }
  auto incremental = assessor.Reassess(*next, *previous);
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  // From-scratch baseline: a fresh context whose database already
  // contains the update, fully assessed.
  auto baseline_context = scenarios::BuildSyntheticContext(spec);
  ASSERT_TRUE(baseline_context.ok()) << baseline_context.status();
  Database patch;
  patch.PutRelation(CopyRelation(next->database(), "SMeasurements"));
  ASSERT_TRUE(baseline_context->SetDatabase(std::move(patch)).ok());
  quality::Assessor baseline_assessor(&*baseline_context);
  auto full = baseline_assessor.Assess();
  ASSERT_TRUE(full.ok()) << full.status();

  EXPECT_EQ(incremental->ToString(), full->ToString())
      << "report text diverged at seed=" << seed;
  EXPECT_EQ(incremental->ToJson(), full->ToJson())
      << "report json diverged at seed=" << seed;

  // Pooled re-assessment (4 workers) must render identically too.
  ThreadPool pool(4);
  quality::AssessOptions pooled_options;
  pooled_options.pool = &pool;
  auto pooled = assessor.Reassess(*next, *previous, pooled_options);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  EXPECT_EQ(pooled->ToString(), full->ToString());
  EXPECT_EQ(pooled->ToJson(), full->ToJson());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityUpdateDiff, ::testing::Range(0u, 24u));

// Adds an assessed relation that is independent of Measurements, so the
// dependency analysis can actually *skip* it (the hospital ontology
// without constraints has no EGDs, which would otherwise force a full
// recompute), and checks the skipping is invisible in the rendered
// report.
void AddAuditRelation(quality::QualityContext* context) {
  Database extra;
  auto schema =
      RelationSchema::Create("Audit", std::vector<std::string>{"Id"});
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(extra.AddRelation(std::move(*schema)).ok());
  for (const char* id : {"a1", "a2", "a3"}) {
    ASSERT_TRUE(extra.InsertText("Audit", {id}).ok());
  }
  ASSERT_TRUE(context->SetDatabase(std::move(extra)).ok());
  ASSERT_TRUE(context->MapRelationToContext("Audit", "Auditc").ok());
  ASSERT_TRUE(context
                  ->DefineQualityVersion("Audit", "Auditq",
                                         "Auditq(X) :- Auditc(X).\n")
                  .ok());
}

TEST(QualityUpdateDiffSkip, IndependentRelationCopiedVerbatim) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;  // upward-only: no form (10)
  options.include_constraints = false;     // no EGDs: skipping is legal
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  AddAuditRelation(&*context);

  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  quality::Assessor assessor(&*context);
  auto previous = assessor.Assess();
  ASSERT_TRUE(previous.ok()) << previous.status();
  ASSERT_EQ(previous->per_relation.size(), 2u);

  quality::RelationDelta delta;
  delta.relation = "Measurements";
  delta.insert_rows.push_back({Value::Str("Sep/5-12:10"),
                               Value::Str("Lou Reed"), Value::Real(37.9)});
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));
  auto next = prepared->ApplyUpdate(batch);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_FALSE(next->chase_stats().extend_fallback)
      << next->chase_stats().fallback_reason;
  EXPECT_EQ(next->updated_relations(),
            std::vector<std::string>{"Measurements"});

  auto incremental = assessor.Reassess(*next, *previous);
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  auto baseline_context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(baseline_context.ok()) << baseline_context.status();
  AddAuditRelation(&*baseline_context);
  Database patch;
  patch.PutRelation(CopyRelation(next->database(), "Measurements"));
  ASSERT_TRUE(baseline_context->SetDatabase(std::move(patch)).ok());
  auto full = quality::Assessor(&*baseline_context).Assess();
  ASSERT_TRUE(full.ok()) << full.status();

  EXPECT_EQ(incremental->ToString(), full->ToString());
  EXPECT_EQ(incremental->ToJson(), full->ToJson());
}

// Snapshot isolation: two different updates branched off the same
// prepared session stay independent, and the parent session is
// untouched.
TEST(QualityUpdateDiffSkip, SessionsBranchIndependently) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;
  options.include_constraints = false;
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const size_t base_facts = prepared->instance().TotalFacts();
  const size_t base_rows =
      CopyRelation(prepared->database(), "Measurements").size();

  auto branch = [&](const char* time, const char* patient, double value) {
    quality::RelationDelta delta;
    delta.relation = "Measurements";
    delta.insert_rows.push_back(
        {Value::Str(time), Value::Str(patient), Value::Real(value)});
    quality::DeltaBatch batch;
    batch.deltas.push_back(std::move(delta));
    return prepared->ApplyUpdate(batch);
  };
  auto left = branch("Sep/5-12:10", "Lou Reed", 37.9);
  ASSERT_TRUE(left.ok()) << left.status();
  auto right = branch("Sep/9-12:00", "Lou Reed", 36.8);
  ASSERT_TRUE(right.ok()) << right.status();

  // The parent saw neither update; each branch saw exactly its own.
  EXPECT_EQ(prepared->instance().TotalFacts(), base_facts);
  EXPECT_EQ(CopyRelation(prepared->database(), "Measurements").size(),
            base_rows);
  EXPECT_EQ(CopyRelation(left->database(), "Measurements").size(),
            base_rows + 1);
  EXPECT_EQ(CopyRelation(right->database(), "Measurements").size(),
            base_rows + 1);
  EXPECT_GT(left->instance().TotalFacts(), base_facts);
  EXPECT_GT(right->instance().TotalFacts(), base_facts);
  EXPECT_NE(left->instance().ToString(), right->instance().ToString());
}

// --- EDB statistics across chained session writes ---
//
// `PreparedContext::EdbStatistics` carries a warm parent's statistics
// across an insert-only write instead of re-collecting them. After every
// write it must still equal a fresh `CollectEdbStats` over the session's
// program: every table's rows and distinct counts, and both totals.

// Checks `session`'s EDB statistics against a fresh collection. Asking
// for them warms the session's cache, as Reassess does.
void ExpectEdbStatsMatchCollect(const quality::PreparedContext& session,
                                const std::string& where) {
  const datalog::InstanceStatistics& got = session.EdbStatistics();
  const datalog::InstanceStatistics want =
      analysis::CostModel::CollectEdbStats(session.program());
  EXPECT_EQ(got.total_facts, want.total_facts) << where;
  EXPECT_EQ(got.max_rows, want.max_rows) << where;
  EXPECT_EQ(got.tables.size(), want.tables.size()) << where;
  const datalog::Vocabulary& vocab = *session.program().vocab();
  for (const auto& [pred, table] : want.tables) {
    auto it = got.tables.find(pred);
    ASSERT_NE(it, got.tables.end())
        << where << ": no entry for " << vocab.PredicateName(pred);
    EXPECT_EQ(it->second.rows, table.rows)
        << where << ": rows of " << vocab.PredicateName(pred);
    EXPECT_EQ(it->second.distinct, table.distinct)
        << where << ": distinct counts of " << vocab.PredicateName(pred);
  }
}

class EdbStatsChain
    : public ::testing::TestWithParam<std::tuple<ScenarioFamily, uint32_t>> {
};

// The generator's update stream (insert-only batches, then one that also
// deletes), followed by a batch re-inserting the deleted rows, so an
// insert-only write also follows the deletion's full re-chase. Sessions
// move between batches, by construction and by assignment in turn.
TEST_P(EdbStatsChain, MatchesCollectAfterEveryBatch) {
  testgen::ScenarioSpec spec = testgen::SpecFor(std::get<0>(GetParam()),
                                                std::get<1>(GetParam()));
  spec.update_batches = 3;
  spec.delete_in_last_batch = true;
  auto scenario = testgen::ScenarioGenerator::Generate(spec);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  std::vector<quality::DeltaBatch> batches;
  for (const testgen::ScenarioUpdate& u : scenario->updates) {
    batches.push_back(u.batch);
  }
  ASSERT_TRUE(batches.back().HasDeletions());
  quality::DeltaBatch reinsert;
  for (const quality::RelationDelta& d : batches.back().deltas) {
    if (d.delete_rows.empty()) continue;
    reinsert.deltas.push_back({d.relation, d.delete_rows, {}});
  }
  batches.push_back(std::move(reinsert));

  auto prepared = scenario->context.Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  std::optional<quality::PreparedContext> session;
  session.emplace(std::move(*prepared));
  ExpectEdbStatsMatchCollect(*session, "prepared");
  for (size_t b = 0; b < batches.size(); ++b) {
    auto next = session->ApplyUpdate(batches[b]);
    ASSERT_TRUE(next.ok()) << "batch " << b << ": " << next.status();
    if (b % 2 == 0) {
      session.emplace(std::move(*next));
    } else {
      *session = std::move(*next);
    }
    ExpectEdbStatsMatchCollect(*session, "batch " + std::to_string(b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, EdbStatsChain,
    ::testing::Combine(::testing::ValuesIn(testgen::kAllScenarioFamilies),
                       ::testing::Range(0u, 6u)),
    [](const auto& info) {
      std::string name =
          testgen::ScenarioFamilyToString(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// One measurement row for the hospital context's Measurements relation.
quality::DeltaBatch MeasurementBatch(const char* time, double value) {
  quality::RelationDelta delta;
  delta.relation = "Measurements";
  delta.insert_rows.push_back(
      {Value::Str(time), Value::Str("Lou Reed"), Value::Real(value)});
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));
  return batch;
}

TEST(EdbStatsCarry, ColdParentCollectsInFull) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;
  options.include_constraints = false;
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // The parent's statistics are never requested before the write.
  auto first = prepared->ApplyUpdate(MeasurementBatch("Sep/5-12:10", 37.9));
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectEdbStatsMatchCollect(*first, "after a cold parent");
  auto second = first->ApplyUpdate(MeasurementBatch("Sep/9-12:00", 36.8));
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectEdbStatsMatchCollect(*second, "after a warm parent");
}

TEST(EdbStatsCarry, ProgramWithEgdCollectsInFull) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;  // EGD (6) stays in
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_FALSE(prepared->program().Egds().empty());
  ExpectEdbStatsMatchCollect(*prepared, "prepared");
  auto next = prepared->ApplyUpdate(MeasurementBatch("Sep/5-12:10", 37.9));
  ASSERT_TRUE(next.ok()) << next.status();
  ExpectEdbStatsMatchCollect(*next, "after an insert");
}

TEST(EdbStatsCarry, InsertIntoDerivedPredicateCollectsInFull) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;
  options.include_constraints = false;
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  AddAuditRelation(&*context);
  // A rule also derives Audit, so its instance table holds a9 besides the
  // extensional rows: the table no longer counts the EDB alone.
  ASSERT_TRUE(context
                  ->AddContextualRules("AuditSeed(\"a9\").\n"
                                       "Audit(X) :- AuditSeed(X).\n")
                  .ok());
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExpectEdbStatsMatchCollect(*prepared, "prepared");

  quality::RelationDelta delta;
  delta.relation = "Audit";
  delta.insert_rows.push_back({Value::Str("a4")});
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));
  auto next = prepared->ApplyUpdate(batch);
  ASSERT_TRUE(next.ok()) << next.status();
  ExpectEdbStatsMatchCollect(*next, "after an insert into Audit");
}

}  // namespace
}  // namespace mdqa
