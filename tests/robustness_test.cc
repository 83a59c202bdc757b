// Robustness and metamorphic properties: rule-order invariance of the
// chase, EGD application order independence, roll-up/drill-down duality,
// memoization transparency, and parser crash-safety on mutated inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "datalog/chase.h"
#include "datalog/parser.h"
#include "qa/deterministic_ws.h"
#include "qa/engines.h"
#include "quality/assessor.h"
#include "scenarios/hospital.h"
#include "scenarios/synthetic.h"

namespace mdqa {
namespace {

using datalog::ChaseOptions;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;

// Re-parses `text` with rule statements permuted by `perm_seed`.
Program PermuteRules(const std::string& rules_text,
                     const std::string& facts_text, uint32_t perm_seed) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(rules_text);
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::mt19937 rng(perm_seed);
  std::shuffle(lines.begin(), lines.end(), rng);
  std::string text = facts_text;
  for (const std::string& l : lines) text += l + "\n";
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

class RuleOrderInvariance : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RuleOrderInvariance, PlainDatalogChaseIsOrderInvariant) {
  const std::string facts =
      "E(1, 2). E(2, 3). E(3, 1). P(1).\n";
  const std::string rules =
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n"
      "Reach(X) :- P(X).\n"
      "Reach(Y) :- Reach(X), E(X, Y).\n";
  Program reference = PermuteRules(rules, facts, 0);
  Instance ref_inst = Instance::FromProgram(reference);
  ASSERT_TRUE(datalog::Chase::Run(reference, &ref_inst, ChaseOptions()).ok());

  Program shuffled = PermuteRules(rules, facts, GetParam() + 1);
  Instance inst = Instance::FromProgram(shuffled);
  ASSERT_TRUE(datalog::Chase::Run(shuffled, &inst, ChaseOptions()).ok());
  EXPECT_EQ(ref_inst.ToString(), inst.ToString());
}

TEST_P(RuleOrderInvariance, ExistentialChaseCertainAnswersInvariant) {
  // With existentials, null *names* may differ across orders; certain
  // answers must not.
  const std::string facts =
      "PW(\"w1\", \"tom\"). PW(\"w2\", \"lou\").\n"
      "UW(\"std\", \"w1\"). UW(\"std\", \"w2\").\n"
      "WS(\"std\", \"helen\").\n";
  const std::string rules =
      "PU(U, P) :- PW(W, P), UW(U, W).\n"
      "SH(W, N, Z) :- WS(U, N), UW(U, W).\n"
      "Seen(P) :- PU(U, P).\n";
  Program a = PermuteRules(rules, facts, 1);
  Program b = PermuteRules(rules, facts, 2);
  for (const char* text :
       {"Q(U, P) :- PU(U, P).", "Q(W, N) :- SH(W, N, S).",
        "Q(P) :- Seen(P)."}) {
    auto qa_ = Parser::ParseQuery(text, a.mutable_vocab());
    auto qb = Parser::ParseQuery(text, b.mutable_vocab());
    ASSERT_TRUE(qa_.ok() && qb.ok());
    auto ans_a = qa::Answer(qa::Engine::kChase, a, *qa_);
    auto ans_b = qa::Answer(qa::Engine::kChase, b, *qb);
    ASSERT_TRUE(ans_a.ok() && ans_b.ok());
    // Compare display forms (vocabularies differ between programs).
    EXPECT_EQ(ans_a->ToString(*a.vocab()), ans_b->ToString(*b.vocab()))
        << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleOrderInvariance,
                         ::testing::Range(0u, 8u));

TEST(EgdOrderIndependence, PermutedEgdsConverge) {
  const std::string facts =
      "F(\"k\", \"v\"). G(\"k\", \"w\").\n"
      "P(\"k\").\n";
  const std::string rules =
      "R(X, A, B) :- P(X).\n"
      "Y = A :- F(X, Y), R(X, A, B).\n"
      "Y = B :- G(X, Y), R(X, A, B).\n";
  Program a = PermuteRules(rules, facts, 3);
  Program b = PermuteRules(rules, facts, 7);
  Instance ia = Instance::FromProgram(a);
  Instance ib = Instance::FromProgram(b);
  ASSERT_TRUE(datalog::Chase::Run(a, &ia, ChaseOptions()).ok());
  ASSERT_TRUE(datalog::Chase::Run(b, &ib, ChaseOptions()).ok());
  // Both nulls resolve to the constants v and w in either order.
  uint32_t r_a = a.vocab()->FindPredicate("R");
  uint32_t r_b = b.vocab()->FindPredicate("R");
  ASSERT_EQ(ia.CountFacts(r_a), 1u);
  const datalog::Term* row_a = ia.Table(r_a)->Row(0);
  const datalog::Term* row_b = ib.Table(r_b)->Row(0);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_TRUE(row_a[i].IsConstant());
    EXPECT_TRUE(row_b[i].IsConstant());
  }
  EXPECT_EQ(a.vocab()->ConstantValue(row_a[1].id()),
            b.vocab()->ConstantValue(row_b[1].id()));
}

TEST(RollupDrilldownDuality, EveryWardRoundTrips) {
  scenarios::SyntheticSpec spec;
  spec.wards_per_unit = 4;
  auto ontology = scenarios::BuildSyntheticOntology(spec);
  ASSERT_TRUE(ontology.ok());
  const md::DimensionInstance& inst =
      (*ontology)->FindDimension("SynHospital")->instance();
  for (const std::string& ward : inst.Members("SWard")) {
    auto ups = inst.RollUp(ward, "SUnit");
    ASSERT_TRUE(ups.ok());
    ASSERT_EQ(ups->size(), 1u);
    auto downs = inst.DrillDown((*ups)[0], "SWard");
    ASSERT_TRUE(downs.ok());
    EXPECT_NE(std::find(downs->begin(), downs->end(), ward), downs->end());
  }
}

TEST(MemoTransparency, MemoOnAndOffAgree) {
  auto ontology =
      scenarios::BuildHospitalOntology(scenarios::HospitalOptions{});
  ASSERT_TRUE(ontology.ok());
  auto program = (*ontology)->Compile();
  ASSERT_TRUE(program.ok());
  for (const char* text :
       {"Q(U, D, P) :- PatientUnit(U, D, P).",
        "Q(D) :- Shifts(\"W2\", D, \"Mark\", S)."}) {
    auto q = Parser::ParseQuery(text, program->vocab().get());
    ASSERT_TRUE(q.ok());
    qa::WsQaOptions with_memo;
    qa::WsQaOptions without_memo;
    without_memo.use_memo = false;
    qa::DeterministicWsQa a(*program, with_memo);
    qa::DeterministicWsQa b(*program, without_memo);
    auto ans_a = a.Answers(*q);
    auto ans_b = b.Answers(*q);
    ASSERT_TRUE(ans_a.ok() && ans_b.ok());
    auto sa = *ans_a;
    auto sb = *ans_b;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb) << text;
    // Memoization saves work.
    EXPECT_LE(a.stats().resolution_steps, b.stats().resolution_steps);
  }
}

class ParserFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParserFuzz, TruncatedAndMutatedInputNeverCrashes) {
  auto ontology =
      scenarios::BuildHospitalOntology(scenarios::HospitalOptions{});
  ASSERT_TRUE(ontology.ok());
  auto program = (*ontology)->Compile();
  ASSERT_TRUE(program.ok());
  const std::string corpus = program->ToString();
  std::mt19937 rng(GetParam() * 2654435761u + 17);
  for (int trial = 0; trial < 50; ++trial) {
    std::string text = corpus;
    // Truncate somewhere.
    text.resize(rng() % (text.size() + 1));
    // Flip a few characters.
    for (int k = 0; k < 3 && !text.empty(); ++k) {
      text[rng() % text.size()] =
          static_cast<char>(' ' + rng() % 95);
    }
    // Must return (ok or error), never crash or hang.
    auto result = Parser::ParseProgram(text);
    (void)result;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0u, 6u));

// --- Budget/fault robustness: truncation must be deterministic, ---
// --- monotone, and report-preserving ---

TEST(FaultProbeDeterminism, SameProbeTripsAtTheSameFact) {
  // Two runs with identically armed fault injectors must truncate at
  // identical instances — fault injection is a deterministic testing
  // tool, not a fuzzer.
  const char* text =
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n";
  auto run_with_probe = [&text]() {
    auto p = Parser::ParseProgram(text);
    EXPECT_TRUE(p.ok());
    FaultInjector faults;
    faults.Arm("chase:trigger", 4,
               Status::ResourceExhausted("injected trip"),
               FaultInjector::kAlways);
    ExecutionBudget budget;
    budget.set_fault_injector(&faults);
    ChaseOptions options;
    options.budget = &budget;
    Instance inst = Instance::FromProgram(*p);
    datalog::ChaseStats stats;
    EXPECT_TRUE(datalog::Chase::Run(*p, &inst, options, &stats).ok());
    EXPECT_EQ(stats.completeness, Completeness::kTruncated);
    return inst.ToString();
  };
  EXPECT_EQ(run_with_probe(), run_with_probe());
}

TEST(TruncationMonotonicity, BiggerBudgetsNestTheirInstances) {
  // D^{q,k} ⊆ D^{q,k+1} ⊆ … ⊆ D^q: increasing fact budgets produce a
  // chain of sound under-approximations (chase monotonicity).
  auto p = Parser::ParseProgram(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5). E(5, 1).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(p.ok());
  uint32_t t = p->vocab()->FindPredicate("T");
  std::vector<std::vector<std::string>> fact_sets;
  for (uint64_t cap : {2ull, 6ull, 12ull, 1000ull}) {
    ExecutionBudget budget;
    budget.set_max_facts(cap);
    ChaseOptions options;
    options.budget = &budget;
    Instance inst = Instance::FromProgram(*p);
    datalog::ChaseStats stats;
    ASSERT_TRUE(datalog::Chase::Run(*p, &inst, options, &stats).ok());
    std::vector<std::string> facts;
    for (const datalog::Atom& f : inst.Facts(t)) {
      facts.push_back(p->vocab()->AtomToString(f));
    }
    std::sort(facts.begin(), facts.end());
    fact_sets.push_back(std::move(facts));
  }
  for (size_t i = 1; i < fact_sets.size(); ++i) {
    EXPECT_TRUE(std::includes(fact_sets[i].begin(), fact_sets[i].end(),
                              fact_sets[i - 1].begin(),
                              fact_sets[i - 1].end()))
        << "budget " << i << " lost facts the smaller budget had";
  }
}

TEST(AssessorFaultIsolation, DegradedReportStaysWellFormed) {
  auto context =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  ASSERT_TRUE(context.ok());
  FaultInjector faults;
  faults.Arm("assessor:relation", 1,
             Status::ResourceExhausted("injected overload"),
             FaultInjector::kAlways);
  ExecutionBudget budget;
  budget.set_fault_injector(&faults);
  quality::AssessOptions options;
  options.budget = &budget;
  options.max_retries = 2;
  auto report = quality::Assessor(&*context).Assess(options);
  ASSERT_TRUE(report.ok()) << report.status();
  // The sole assessed relation is degraded after all three attempts, yet
  // the report still renders, carries the checks, and says why.
  ASSERT_EQ(report->degraded.size(), 1u);
  EXPECT_EQ(report->degraded[0].attempts, 3);
  EXPECT_TRUE(report->per_relation.empty());
  EXPECT_EQ(report->completeness, Completeness::kTruncated);
  EXPECT_NE(report->ToString().find("referential"), std::string::npos);
  EXPECT_NE(report->ToString().find("DEGRADED"), std::string::npos);
  EXPECT_NE(report->ToJson().find("injected overload"), std::string::npos);
}

TEST(AssessorDirtyTuples, ListsTableIComplement) {
  auto context =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  ASSERT_TRUE(context.ok());
  quality::Assessor assessor(&*context);
  auto report = assessor.Assess();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->dirty_tuples.size(), 1u);
  EXPECT_EQ(report->dirty_tuples[0].size(), 4u);  // Table I rows 3-6
  EXPECT_TRUE(report->dirty_tuples[0].Contains(
      {Value::Str("Sep/7-12:15"), Value::Str("Tom Waits"),
       Value::Real(37.7)}));
}

}  // namespace
}  // namespace mdqa
