#include "qa/deterministic_ws.h"

#include <gtest/gtest.h>

#include <tuple>

#include "datalog/parser.h"

namespace mdqa::qa {
namespace {

using datalog::Parser;
using datalog::Program;

Program Parse(const std::string& text) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(DeterministicWsQa, ExtensionalOnly) {
  Program p = Parse("R(1, 2). R(3, 4).");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(X, Y) :- R(X, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto answers = qa.Answers(*q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_EQ(qa.stats().rule_applications, 0u);
}

TEST(DeterministicWsQa, SingleRuleDerivation) {
  Program p = Parse(
      "E(1, 2).\n"
      "T(X, Y) :- E(X, Y).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(X, Y) :- T(X, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(qa.Answers(*q)->size(), 1u);
  EXPECT_GE(qa.stats().facts_materialized, 1u);
}

TEST(DeterministicWsQa, RecursiveDerivationChain) {
  Program p = Parse(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(Y) :- T(1, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto answers = qa.Answers(*q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 4u);
}

TEST(DeterministicWsQa, BooleanAcceptsAndRejects) {
  Program p = Parse(
      "E(1, 2). E(2, 3).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  DeterministicWsQa qa(p);
  auto yes = Parser::ParseQuery("Q() :- T(1, 3).", p.mutable_vocab());
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*qa.AnswerBoolean(*yes));
  auto no = Parser::ParseQuery("Q() :- T(3, 1).", p.mutable_vocab());
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*qa.AnswerBoolean(*no));
}

TEST(DeterministicWsQa, ExistentialNullsSupportJoins) {
  // The null invented for HasParent must join with Person derived from it.
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n"
      "Person(Z) :- HasParent(X, Z).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q() :- HasParent(\"ann\", Z), Person(Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(*qa.AnswerBoolean(*q));
}

TEST(DeterministicWsQa, GroundGoalAtExistentialPositionIsDead) {
  // T("x") cannot be proven via the existential rule: the invented null
  // never equals "x".
  Program p = Parse(
      "S(\"a\").\n"
      "T(Z) :- S(X).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q() :- T(\"x\").", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(*qa.AnswerBoolean(*q));
  // But the existentially quantified query holds.
  auto q2 = Parser::ParseQuery("Q() :- T(Z).", p.mutable_vocab());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(*qa.AnswerBoolean(*q2));
}

TEST(DeterministicWsQa, CertainVersusPossibleAnswers) {
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(Z) :- HasParent(\"ann\", Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(qa.Answers(*q)->size(), 0u);
  EXPECT_EQ(qa.PossibleAnswers(*q)->size(), 1u);
}

TEST(DeterministicWsQa, MultiAtomHeadFiresJointly) {
  Program p = Parse(
      "D(\"h\", \"d\", \"p\").\n"
      "IU(I, U), PU(U, D, P) :- D(I, D, P).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q() :- IU(\"h\", U), PU(U, \"d\", \"p\").",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(*qa.AnswerBoolean(*q));
}

TEST(DeterministicWsQa, RestrictedFiringSkipsSatisfiedHeads) {
  Program p = Parse(
      "Person(\"ann\"). HasParent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(Z) :- HasParent(\"ann\", Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto answers = qa.Answers(*q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);  // just "eve"; no null invented
  EXPECT_EQ(qa.stats().facts_materialized, 0u);
}

TEST(DeterministicWsQa, GoalDirectednessSkipsIrrelevantRules) {
  // The query never touches the U-chain; its rules must not fire.
  Program p = Parse(
      "A(1). U0(1).\n"
      "B(X) :- A(X).\n"
      "U1(X) :- U0(X).\n"
      "U2(X) :- U1(X).\n"
      "U3(X) :- U2(X).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(X) :- B(X).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(qa.Answers(*q)->size(), 1u);
  EXPECT_EQ(qa.stats().facts_materialized, 1u);  // only B(1)
  uint32_t u3 = p.vocab()->FindPredicate("U3");
  EXPECT_EQ(qa.working_instance().CountFacts(u3), 0u);
}

TEST(DeterministicWsQa, DepthBoundTruncatesDeepProofs) {
  Program p = Parse(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  WsQaOptions options;
  options.max_depth = 1;  // only one nested rule application
  DeterministicWsQa qa(p, options);
  auto q = Parser::ParseQuery("Q() :- T(1, 5).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(*qa.AnswerBoolean(*q));  // needs depth 4
  DeterministicWsQa deep(p);            // auto depth is ample
  auto q2 = Parser::ParseQuery("Q() :- T(1, 5).", p.mutable_vocab());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(*deep.AnswerBoolean(*q2));
}

// Labeled-null ids stay below UINT32_MAX, the parser's `_n<k>` range: a
// proof that needs a fresh null past it fails instead of wrapping onto
// `_n0` (which would answer the second query with `_n0`).
TEST(DeterministicWsQa, NullIdExhaustionIsAHardError) {
  for (const auto& [program, query] :
       {std::pair<const char*, const char*>{
            "P(_n4294967294). A(1). A(2). A(3).\nR(X, Z) :- A(X).\n",
            "Q(Z) :- R(X, Z)."},
        {"P(_n0). P(_n4294967294). A(1). A(2).\nR(X, Z) :- A(X).\n",
         "Q(Z) :- R(X, Z), P(Z)."}}) {
    Program p = Parse(program);
    DeterministicWsQa qa(p);
    auto q = Parser::ParseQuery(query, p.mutable_vocab());
    ASSERT_TRUE(q.ok()) << q.status();
    auto answers = qa.PossibleAnswers(*q);
    ASSERT_FALSE(answers.ok()) << program;
    EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(answers.status().message().find("null ids exhausted"),
              std::string::npos)
        << answers.status();
  }
}

TEST(DeterministicWsQa, InfiniteProgramStaysBounded) {
  // The chase is infinite, but the bounded proof search terminates and
  // answers the query correctly.
  Program p = Parse(
      "R(1, 2).\n"
      "R(Y, Z) :- R(X, Y).\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q() :- R(2, W).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(*qa.AnswerBoolean(*q));
  auto no = Parser::ParseQuery("Q() :- R(2, 1).", p.mutable_vocab());
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*qa.AnswerBoolean(*no));
}

// Option sweep: memoization on/off and a range of depth bounds at or
// above the needed depth must not change answers.
class WsOptionSweep
    : public ::testing::TestWithParam<std::tuple<bool, uint32_t>> {};

TEST_P(WsOptionSweep, AnswersInvariantAcrossConfigs) {
  Program p = Parse(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  WsQaOptions options;
  options.use_memo = std::get<0>(GetParam());
  options.max_depth = std::get<1>(GetParam());
  DeterministicWsQa qa(p, options);
  auto q = Parser::ParseQuery("Q(Y) :- T(1, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto answers = qa.Answers(*q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WsOptionSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(4u, 8u, 0u /*auto*/)),
    [](const ::testing::TestParamInfo<std::tuple<bool, uint32_t>>& info) {
      return std::string(std::get<0>(info.param) ? "Memo" : "NoMemo") +
             "_Depth" + std::to_string(std::get<1>(info.param));
    });

TEST(DeterministicWsQa, ComparisonsInQueryAndRules) {
  Program p = Parse(
      "M(1, 5). M(2, 15).\n"
      "Big(X, V) :- M(X, V), V > 10.\n");
  DeterministicWsQa qa(p);
  auto q = Parser::ParseQuery("Q(X) :- Big(X, V), X >= 1.",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto answers = qa.Answers(*q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 1u);
}

}  // namespace
}  // namespace mdqa::qa
