#include "datalog/chase.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace mdqa::datalog {
namespace {

struct ChaseRun {
  Program program;
  Instance instance;
  Result<ChaseStats> stats;
};

ChaseRun RunChase(const std::string& text,
             const ChaseOptions& options = ChaseOptions()) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  Program program = std::move(p).value();
  Instance instance = Instance::FromProgram(program);
  Result<ChaseStats> stats = Chase::Run(program, &instance, options);
  return ChaseRun{std::move(program), std::move(instance), std::move(stats)};
}

size_t Count(const ChaseRun& run, const std::string& pred) {
  uint32_t id = run.program.vocab()->FindPredicate(pred);
  return id == StringPool::kNotFound ? 0 : run.instance.CountFacts(id);
}

TEST(Chase, PlainDatalogTransitiveClosure) {
  auto run = RunChase(
      "E(1, 2). E(2, 3). E(3, 4).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_TRUE(run.stats->reached_fixpoint);
  EXPECT_EQ(Count(run, "T"), 6u);  // 12 13 14 23 24 34
}

TEST(Chase, NaiveAndSemiNaiveAgree) {
  const char* text =
      "E(1, 2). E(2, 3). E(3, 4). E(4, 1).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), T(Y, Z).\n";
  ChaseOptions naive;
  naive.semi_naive = false;
  auto a = RunChase(text);
  auto b = RunChase(text, naive);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  EXPECT_EQ(Count(a, "T"), 16u);
  EXPECT_EQ(Count(a, "T"), Count(b, "T"));
  EXPECT_EQ(a.instance.ToString(), b.instance.ToString());
}

TEST(Chase, ExistentialCreatesNull) {
  auto run = RunChase(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->nulls_created, 1u);
  EXPECT_EQ(Count(run, "HasParent"), 1u);
  uint32_t pred = run.program.vocab()->FindPredicate("HasParent");
  EXPECT_TRUE(run.instance.Table(pred)->Row(0)[1].IsNull());
}

TEST(Chase, RestrictedChaseSkipsSatisfiedHeads) {
  // The head is already satisfied extensionally: no firing needed.
  auto run = RunChase(
      "Person(\"ann\"). HasParent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_EQ(run.stats->nulls_created, 0u);
  EXPECT_EQ(Count(run, "HasParent"), 1u);
}

TEST(Chase, InfiniteChaseHitsRoundBudget) {
  // R(x,y) -> exists z R(y,z): classic non-terminating chase.
  ChaseOptions options;
  options.max_rounds = 10;
  options.check_constraints = false;
  auto run = RunChase("R(1, 2).\nR(Y, Z) :- R(X, Y).\n", options);
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_FALSE(run.stats->reached_fixpoint);
  EXPECT_EQ(run.stats->rounds, 10u);
  EXPECT_EQ(Count(run, "R"), 11u);  // one new fact per level
}

TEST(Chase, MaxFactsBudget) {
  ChaseOptions options;
  options.max_facts = 5;
  auto run = RunChase("R(1, 2).\nR(Y, Z) :- R(X, Y).\n", options);
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(Chase, DerivationLevelsMatchRounds) {
  // Rules are applied in program order within a round, so C (listed
  // first) only sees B-facts in the *next* round: levels track rounds.
  auto run = RunChase(
      "A(1).\n"
      "C(X) :- B(X).\n"
      "B(X) :- A(X).\n");
  ASSERT_TRUE(run.stats.ok());
  const auto& vocab = *run.program.vocab();
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("A"))->Level(0), 0u);
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("B"))->Level(0), 1u);
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("C"))->Level(0), 2u);
}

TEST(Chase, SameRoundVisibilityInRuleOrder) {
  // Listed in dependency order, both derivations land in round one.
  auto run = RunChase(
      "A(1).\n"
      "B(X) :- A(X).\n"
      "C(X) :- B(X).\n");
  ASSERT_TRUE(run.stats.ok());
  const auto& vocab = *run.program.vocab();
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("B"))->Level(0), 1u);
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("C"))->Level(0), 1u);
}

TEST(Chase, MultiAtomHeadSharesNulls) {
  auto run = RunChase(
      "D(\"h\", \"d\", \"p\").\n"
      "IU(I, U), PU(U, D, P) :- D(I, D, P).\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_EQ(run.stats->nulls_created, 1u);
  const auto& vocab = *run.program.vocab();
  const FactTable* iu = run.instance.Table(vocab.FindPredicate("IU"));
  const FactTable* pu = run.instance.Table(vocab.FindPredicate("PU"));
  ASSERT_EQ(iu->size(), 1u);
  ASSERT_EQ(pu->size(), 1u);
  EXPECT_EQ(iu->Row(0)[1], pu->Row(0)[0]);  // same labeled null
}

TEST(Chase, NegativeConstraintViolation) {
  auto run = RunChase(
      "P(\"x\"). Q(\"x\").\n"
      "! :- P(X), Q(X).\n");
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kInconsistent);
  EXPECT_NE(run.stats.status().message().find("negative constraint"),
            std::string::npos);
}

TEST(Chase, NegativeConstraintOnDerivedFacts) {
  auto run = RunChase(
      "P(\"x\").\n"
      "Q(X) :- P(X).\n"
      "! :- Q(X).\n");
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kInconsistent);
}

TEST(Chase, ConstraintCheckCanBeDisabled) {
  ChaseOptions options;
  options.check_constraints = false;
  auto run = RunChase("P(\"x\"). Q(\"x\").\n! :- P(X), Q(X).\n", options);
  EXPECT_TRUE(run.stats.ok());
}

TEST(Chase, EgdMergesNullWithConstant) {
  // The null invented for ann's parent is equated with "eve".
  auto run = RunChase(
      "Person(\"ann\"). Parent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n"
      "Y = Z :- Parent(X, Y), HasParent(X, Z).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  uint32_t pred = run.program.vocab()->FindPredicate("HasParent");
  const FactTable* t = run.instance.Table(pred);
  ASSERT_EQ(t->size(), 1u);
  EXPECT_TRUE(t->Row(0)[1].IsConstant());
  EXPECT_GE(run.stats->egd_merges, 1u);
}

TEST(Chase, EgdMergesTwoNulls) {
  auto run = RunChase(
      "P(\"a\"). Q(\"a\").\n"
      "R(X, Y) :- P(X).\n"
      "S(X, Y) :- Q(X).\n"
      "Y = Z :- R(X, Y), S(X, Z).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  const auto& vocab = *run.program.vocab();
  const FactTable* r = run.instance.Table(vocab.FindPredicate("R"));
  const FactTable* s = run.instance.Table(vocab.FindPredicate("S"));
  EXPECT_EQ(r->Row(0)[1], s->Row(0)[1]);  // unified to one null
}

TEST(Chase, EgdConstantClashIsInconsistent) {
  auto run = RunChase(
      "T(\"w1\", \"t1\"). T(\"w2\", \"t2\"). U(\"u\", \"w1\"). "
      "U(\"u\", \"w2\").\n"
      "A = B :- T(W, A), T(W2, B), U(X, W), U(X, W2).\n");
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kInconsistent);
  EXPECT_NE(run.stats.status().message().find("EGD"), std::string::npos);
}

TEST(Chase, EgdPostModeMatchesInterleavedOnSeparablePrograms) {
  const char* text =
      "P(\"a\"). Parent(\"a\", \"e\").\n"
      "HasParent(X, Z) :- P(X).\n"
      "Y = Z :- Parent(X, Y), HasParent(X, Z).\n";
  ChaseOptions post;
  post.egd_mode = EgdMode::kPost;
  auto a = RunChase(text);
  auto b = RunChase(text, post);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  EXPECT_EQ(a.instance.ToString(), b.instance.ToString());
}

TEST(Chase, EgdOffModeLeavesNulls) {
  ChaseOptions off;
  off.egd_mode = EgdMode::kOff;
  auto run = RunChase(
      "P(\"a\"). Parent(\"a\", \"e\").\n"
      "HasParent(X, Z) :- P(X).\n"
      "Y = Z :- Parent(X, Y), HasParent(X, Z).\n",
      off);
  ASSERT_TRUE(run.stats.ok());
  uint32_t pred = run.program.vocab()->FindPredicate("HasParent");
  EXPECT_TRUE(run.instance.Table(pred)->Row(0)[1].IsNull());
}

TEST(Chase, EgdMergeEnablesFurtherTgdFirings) {
  // After the null is merged to "b", rule S fires on the joined value —
  // the semi-naive force-full-after-merge path.
  auto run = RunChase(
      "P(\"a\"). Eq(\"a\", \"b\"). W(\"b\").\n"
      "R(X, Y) :- P(X).\n"
      "Y = Z :- Eq(X, Z), R(X, Y).\n"
      "S(Y) :- R(X, Y), W(Y).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(Count(run, "S"), 1u);
}

TEST(Chase, SemiObliviousFiresUnconditionally) {
  // The head is already satisfied extensionally; the restricted chase
  // skips, the semi-oblivious chase fires anyway.
  ChaseOptions oblivious;
  oblivious.restricted = false;
  auto run = RunChase(
      "Person(\"ann\"). HasParent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n",
      oblivious);
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->nulls_created, 1u);
  EXPECT_EQ(Count(run, "HasParent"), 2u);  // eve + the fresh null
}

TEST(Chase, SemiObliviousTerminatesOnWeaklyAcyclic) {
  ChaseOptions oblivious;
  oblivious.restricted = false;
  auto run = RunChase(
      "A(1). A(2).\n"
      "B(X, Z) :- A(X).\n"
      "C(Y) :- B(X, Y).\n",
      oblivious);
  ASSERT_TRUE(run.stats.ok());
  EXPECT_TRUE(run.stats->reached_fixpoint);
  EXPECT_EQ(Count(run, "B"), 2u);
  EXPECT_EQ(Count(run, "C"), 2u);
}

TEST(Chase, RestrictedAndSemiObliviousCertainAnswersAgree) {
  const char* text =
      "PW(\"w1\", \"tom\"). UW(\"std\", \"w1\").\n"
      "PU(U, P) :- PW(W, P), UW(U, W).\n"
      "SH(W, N) :- PU(U, N), UW(U, W).\n";
  ChaseOptions oblivious;
  oblivious.restricted = false;
  auto a = RunChase(text);
  auto b = RunChase(text, oblivious);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  // No existentials here, so the instances coincide exactly.
  EXPECT_EQ(a.instance.ToString(), b.instance.ToString());
}

TEST(Chase, ComparisonsInRuleBodies) {
  auto run = RunChase(
      "V(1). V(2). V(3).\n"
      "Big(X) :- V(X), X >= 2.\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_EQ(Count(run, "Big"), 2u);
}

TEST(Chase, ApplyEgdsStandalone) {
  auto p = Parser::ParseProgram(
      "F(\"k\", \"v1\").\n"
      "G(\"k\", Z) :- F(\"k\", Y).\n"
      "Y = Z :- F(X, Y), G(X, Z).\n");
  ASSERT_TRUE(p.ok());
  Instance instance = Instance::FromProgram(*p);
  ChaseOptions options;
  options.egd_mode = EgdMode::kOff;
  ASSERT_TRUE(Chase::Run(*p, &instance, options).ok());
  auto merges = Chase::ApplyEgds(*p, &instance);
  ASSERT_TRUE(merges.ok()) << merges.status();
  EXPECT_EQ(*merges, 1u);
}

TEST(Chase, CheckConstraintsStandalone) {
  auto p = Parser::ParseProgram("P(1).\n! :- P(X), X > 5.\n");
  ASSERT_TRUE(p.ok());
  Instance instance = Instance::FromProgram(*p);
  EXPECT_TRUE(Chase::CheckConstraints(*p, instance).ok());
  instance.AddFact(
      Atom(p->vocab()->FindPredicate("P"), {p->mutable_vocab()->Int(9)}), 0);
  EXPECT_EQ(Chase::CheckConstraints(*p, instance).code(),
            StatusCode::kInconsistent);
}

// Existential-free heads are checked by probing their instantiated rows
// in the fact tables; the cases below pin that check's firing decisions
// together with the ChaseStats they produce.

TEST(Chase, ProbedHeadFiresOnlyForTheMissingAtom) {
  // Triggers "a" and "b" each find one head atom present and the other
  // missing: each fires once and adds only its missing fact. Trigger "c"
  // finds both head atoms and is skipped.
  auto run = RunChase(
      "Q(\"a\"). Q(\"b\"). Q(\"c\"). R(\"a\"). P(\"b\"). R(\"c\"). P(\"c\").\n"
      "R(X), P(X) :- Q(X).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->tgd_firings, 2u);
  EXPECT_EQ(run.stats->facts_added, 2u);
  EXPECT_EQ(run.stats->nulls_created, 0u);
  EXPECT_EQ(Count(run, "R"), 3u);
  EXPECT_EQ(Count(run, "P"), 3u);
  Vocabulary* vocab = run.program.mutable_vocab();
  EXPECT_TRUE(run.instance.Contains(
      Atom(vocab->FindPredicate("P"), {vocab->Str("a")})));
  EXPECT_TRUE(run.instance.Contains(
      Atom(vocab->FindPredicate("R"), {vocab->Str("b")})));
}

TEST(Chase, ProbedHeadWithRepeatedVariableAndConstant) {
  auto run = RunChase("Q(\"a\").\nP(X, X, \"c\") :- Q(X).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->tgd_firings, 1u);
  EXPECT_EQ(run.stats->facts_added, 1u);
  EXPECT_EQ(run.instance.ToString(), "P(\"a\", \"a\", \"c\").\nQ(\"a\").\n");

  // The same row already a fact: the trigger is satisfied, nothing fires.
  auto present = RunChase(
      "Q(\"a\"). P(\"a\", \"a\", \"c\").\nP(X, X, \"c\") :- Q(X).\n");
  ASSERT_TRUE(present.stats.ok()) << present.stats.status();
  EXPECT_EQ(present.stats->tgd_firings, 0u);
  EXPECT_EQ(present.stats->facts_added, 0u);
  EXPECT_EQ(Count(present, "P"), 1u);
}

TEST(Chase, EmptyFrontierFiresAtMostOnce) {
  // The frontier is empty, so every body match projects onto the same
  // width-0 trigger row: one firing.
  auto run = RunChase("P(\"a\"). P(\"b\"). P(\"d\").\nQ(\"c\") :- P(X).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->tgd_firings, 1u);
  EXPECT_EQ(run.stats->facts_added, 1u);
  EXPECT_EQ(Count(run, "Q"), 1u);
  Vocabulary* vocab = run.program.mutable_vocab();
  EXPECT_TRUE(run.instance.Contains(
      Atom(vocab->FindPredicate("Q"), {vocab->Str("c")})));
  auto present = RunChase("P(\"a\"). Q(\"c\").\nQ(\"c\") :- P(X).\n");
  ASSERT_TRUE(present.stats.ok()) << present.stats.status();
  EXPECT_EQ(present.stats->tgd_firings, 0u);
  EXPECT_EQ(present.stats->facts_added, 0u);
}

TEST(Chase, ProbedHeadStillPollsCqRow) {
  // One "cq:row" poll for the collection pass, then one per probed
  // trigger: a fault armed on the third hit stops the second trigger.
  auto p = Parser::ParseProgram(
      "P(\"a\"). P(\"b\"). P(\"d\").\nQ(X) :- P(X).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  FaultInjector faults;
  faults.Arm("cq:row", 3, Status::ResourceExhausted("injected trip"));
  ExecutionBudget budget;
  budget.set_fault_injector(&faults);
  ChaseOptions options;
  options.budget = &budget;
  Instance instance = Instance::FromProgram(*p);
  ChaseStats stats;
  ASSERT_TRUE(Chase::Run(*p, &instance, options, &stats).ok());
  EXPECT_EQ(stats.completeness, Completeness::kTruncated);
  EXPECT_EQ(stats.stop, ChaseStop::kBudget);
  EXPECT_EQ(stats.tgd_firings, 1u);
  EXPECT_EQ(stats.facts_added, 1u);
  EXPECT_EQ(faults.HitCount("cq:row"), 3u);
}

TEST(Chase, ProjectingRuleWithManyMatchesPerTrigger) {
  // 256 x 300 edges: far more body matches than distinct triggers, enough
  // to make the trigger buffer compact itself during the pass. Edges are
  // stored in descending source order, so matches arrive unsorted.
  auto p = Parser::ParseProgram("Reach(X) :- Edge(X, Y).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  Vocabulary* vocab = p->mutable_vocab();
  auto edge = vocab->InternPredicate("Edge", 2);
  ASSERT_TRUE(edge.ok());
  for (int x = 0; x < 256; ++x) vocab->Int(x);  // ascending term ids
  Instance instance(p->vocab());
  for (int x = 255; x >= 0; --x) {
    for (int y = 0; y < 300; ++y) {
      instance.AddFact(Atom(*edge, {vocab->Int(x), vocab->Int(1000 + y)}), 0);
    }
  }
  Result<ChaseStats> stats = Chase::Run(*p, &instance);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->tgd_firings, 256u);
  EXPECT_EQ(stats->facts_added, 256u);
  const FactTable* reach = instance.Table(vocab->FindPredicate("Reach"));
  ASSERT_NE(reach, nullptr);
  ASSERT_EQ(reach->size(), 256u);
  for (uint32_t r = 0; r < reach->size(); ++r) {
    EXPECT_EQ(reach->Row(r)[0], vocab->Int(r));  // fired in sorted order
  }
}

TEST(Chase, MaxFactsTripsOnExistentialFreeRecursion) {
  // 4 edges plus a running count of derived T facts: the third firing of
  // the first round takes the instance to 7 > max_facts = 6.
  auto p = Parser::ParseProgram(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  ChaseOptions options;
  options.max_facts = 6;
  Instance instance = Instance::FromProgram(*p);
  ChaseStats stats;
  ASSERT_TRUE(Chase::Run(*p, &instance, options, &stats).ok());
  EXPECT_EQ(stats.stop, ChaseStop::kFactLimit);
  EXPECT_EQ(stats.completeness, Completeness::kTruncated);
  EXPECT_FALSE(stats.reached_fixpoint);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.tgd_firings, 3u);
  EXPECT_EQ(stats.facts_added, 3u);
  EXPECT_EQ(instance.TotalFacts(), 7u);

  // The legacy overload reports the same trip as an error.
  Instance again = Instance::FromProgram(*p);
  Result<ChaseStats> legacy = Chase::Run(*p, &again, options);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kResourceExhausted);
}

TEST(Chase, SatisfiedExtendLeavesHeadTableShared) {
  auto p = Parser::ParseProgram(
      "A(\"a\"). B(\"a\"). B(\"b\").\nB(X) :- A(X).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  Instance instance = Instance::FromProgram(*p);
  ChaseStats base;
  ASSERT_TRUE(Chase::Run(*p, &instance, ChaseOptions(), &base).ok());
  ASSERT_TRUE(base.frontier.valid);
  const uint32_t a = p->vocab()->FindPredicate("A");
  const uint32_t b = p->vocab()->FindPredicate("B");
  Instance snapshot = instance.Snapshot();

  // The delta's only trigger derives B("b"), already a fact.
  ChaseStats stats;
  ASSERT_TRUE(Chase::Extend(*p, &instance, base.frontier,
                            {Atom(a, {p->mutable_vocab()->Str("b")})},
                            ChaseOptions(), &stats)
                  .ok());
  EXPECT_FALSE(stats.extend_fallback);
  EXPECT_EQ(stats.tgd_firings, 0u);
  EXPECT_EQ(stats.facts_added, 1u);  // the delta fact itself
  EXPECT_TRUE(instance.Contains(Atom(a, {p->mutable_vocab()->Str("b")})));
  EXPECT_EQ(instance.CountFacts(b), 2u);
  EXPECT_FALSE(instance.SharesTableWith(snapshot, a));
  EXPECT_TRUE(instance.SharesTableWith(snapshot, b));
}

TEST(Chase, StatsToStringMentionsFixpoint) {
  auto run = RunChase("P(1).\nQ(X) :- P(X).\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_NE(run.stats->ToString().find("fixpoint"), std::string::npos);
}

}  // namespace
}  // namespace mdqa::datalog
