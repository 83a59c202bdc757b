#include "qa/chase_qa.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace mdqa::qa {
namespace {

using datalog::ConjunctiveQuery;
using datalog::Parser;
using datalog::Program;

Program Parse(const std::string& text) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(ChaseQa, CertainAnswersExcludeNulls) {
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok()) << qa.status();
  auto q = Parser::ParseQuery("Q(X, Z) :- HasParent(X, Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(qa->Answers(*q)->size(), 0u);       // null in the tuple
  EXPECT_EQ(qa->PossibleAnswers(*q)->size(), 1u);
  auto q2 = Parser::ParseQuery("Q(X) :- HasParent(X, Z).",
                               p.mutable_vocab());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(qa->Answers(*q2)->size(), 1u);  // projection is null-free
}

TEST(ChaseQa, BooleanEntailmentThroughNulls) {
  // This program's chase is infinite (each null gets a parent); a small
  // level bound — the budget's round cap — suffices for the query.
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n"
      "Person(Z) :- HasParent(X, Z).\n");
  ExecutionBudget budget;
  budget.set_max_rounds(4);
  datalog::ChaseOptions options;
  options.budget = &budget;
  auto qa = ChaseQa::Create(p, options);
  ASSERT_TRUE(qa.ok()) << qa.status();
  // "Someone has a parent who is a person" — witnessed by the null.
  auto q = Parser::ParseQuery("Q() :- HasParent(X, Z), Person(Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(*qa->AnswerBoolean(*q));
}

TEST(ChaseQa, RecursiveProgramToFixpoint) {
  Program p = Parse(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok());
  EXPECT_TRUE(qa->stats().reached_fixpoint);
  auto q = Parser::ParseQuery("Q(Y) :- T(1, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(qa->Answers(*q)->size(), 4u);
}

TEST(ChaseQa, LevelBoundedChaseUnderApproximates) {
  // With only 2 rounds the 4-step chain is not fully closed.
  Program p = Parse(
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ExecutionBudget budget;
  budget.set_max_rounds(2);
  datalog::ChaseOptions options;
  options.budget = &budget;
  auto qa = ChaseQa::Create(p, options);
  ASSERT_TRUE(qa.ok());
  EXPECT_FALSE(qa->stats().reached_fixpoint);
  auto q = Parser::ParseQuery("Q(Y) :- T(1, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_LT(qa->Answers(*q)->size(), 4u);
}

TEST(ChaseQa, InconsistencySurfacesAtCreate) {
  Program p = Parse("P(1).\n! :- P(X).\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_FALSE(qa.ok());
  EXPECT_EQ(qa.status().code(), StatusCode::kInconsistent);
}

TEST(ChaseQa, ComparisonsInQueries) {
  Program p = Parse(
      "M(\"a\", 5). M(\"b\", 15).\n"
      "Big(X, V) :- M(X, V), V > 10.\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok());
  auto q = Parser::ParseQuery("Q(X) :- Big(X, V), V < 100.",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto answers = qa->Answers(*q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

TEST(ChaseQa, IncrementalRechaseDerivesNewConsequences) {
  Program p = Parse(
      "PW(\"w1\", \"tom\"). UW(\"std\", \"w1\"). UW(\"std\", \"w2\").\n"
      "PU(U, P) :- PW(W, P), UW(U, W).\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok()) << qa.status();
  uint32_t pu = p.vocab()->FindPredicate("PU");
  EXPECT_EQ(qa->instance().CountFacts(pu), 1u);

  // A new patient arrives in w2.
  uint32_t pw = p.vocab()->FindPredicate("PW");
  datalog::Atom new_fact(
      pw, {p.mutable_vocab()->Str("w2"), p.mutable_vocab()->Str("lou")});
  auto stats = qa->Extend({new_fact});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(qa->instance().CountFacts(pu), 2u);

  // The inserted fact plus its one new consequence: old consequences are
  // not re-derived.
  EXPECT_EQ(stats->facts_added, 2u);
}

TEST(ChaseQa, IncrementalRechaseRejectsNonGround) {
  Program p = Parse("P(1).\nQ(X) :- P(X).\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok());
  const uint32_t pred = p.vocab()->FindPredicate("P");
  datalog::Atom ground(pred, {p.mutable_vocab()->Int(2)});
  datalog::Atom open_atom(pred, {p.mutable_vocab()->Var("X")});
  EXPECT_FALSE(qa->Extend({ground, open_atom}).ok());
  // The rejected batch left the program and the instance as they were.
  EXPECT_EQ(qa->program().facts().size(), 1u);
  EXPECT_EQ(qa->instance().CountFacts(pred), 1u);
}

TEST(ChaseQa, IncrementalRechaseCanViolateConstraints) {
  Program p = Parse(
      "P(1).\n"
      "! :- P(X), X > 5.\n");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok());
  datalog::Atom bad(p.vocab()->FindPredicate("P"),
                    {p.mutable_vocab()->Int(9)});
  auto stats = qa->Extend({bad});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInconsistent);
}

TEST(ChaseQa, EmptyProgramAnswersOnEdb) {
  Program p = Parse("R(1, 2). R(3, 4).");
  auto qa = ChaseQa::Create(p);
  ASSERT_TRUE(qa.ok());
  auto q = Parser::ParseQuery("Q(X, Y) :- R(X, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(qa->Answers(*q)->size(), 2u);
  EXPECT_EQ(qa->stats().rounds, 1u);
}

}  // namespace
}  // namespace mdqa::qa
