#include "qa/rewriter.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "qa/chase_qa.h"

namespace mdqa::qa {
namespace {

using datalog::ConjunctiveQuery;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;

Program Parse(const std::string& text) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(UcqRewriter, NoRulesMeansIdentity) {
  Program p = Parse("R(1, 2).");
  auto q = Parser::ParseQuery("Q(X) :- R(X, Y).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto ucq = UcqRewriter::Rewrite(p, *q);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  EXPECT_EQ(ucq->size(), 1u);
}

TEST(UcqRewriter, SingleStepRewriting) {
  Program p = Parse(
      "SalesCity(\"c1\", 10). RegionCity(\"r1\", \"c1\").\n"
      "SalesRegion(R, A) :- SalesCity(C, A), RegionCity(R, C).\n");
  auto q = Parser::ParseQuery("Q(R, A) :- SalesRegion(R, A).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  RewriteStats stats;
  auto ucq = UcqRewriter::Rewrite(p, *q, RewriteOptions{}, &stats);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  EXPECT_EQ(ucq->size(), 2u);  // original + one rewriting
  // Evaluate on the raw EDB — no chase.
  Instance edb = Instance::FromProgram(p);
  auto answers = UcqRewriter::Answers(p, edb, *q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

TEST(UcqRewriter, ChainOfRules) {
  Program p = Parse(
      "A(\"x\").\n"
      "B(X) :- A(X).\n"
      "C(X) :- B(X).\n"
      "D(X) :- C(X).\n");
  auto q = Parser::ParseQuery("Q(X) :- D(X).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto ucq = UcqRewriter::Rewrite(p, *q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 4u);  // D, C, B, A forms
  Instance edb = Instance::FromProgram(p);
  EXPECT_EQ(UcqRewriter::Answers(p, edb, *q)->size(), 1u);
}

TEST(UcqRewriter, ExistentialApplicabilityUnboundVariable) {
  // HasParent's second position is existential. Q(X) :- HasParent(X, Z)
  // with Z unshared rewrites to Person(X); asking for a specific parent
  // constant must NOT rewrite.
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  auto open = Parser::ParseQuery("Q(X) :- HasParent(X, Z).",
                                 p.mutable_vocab());
  ASSERT_TRUE(open.ok());
  auto ucq = UcqRewriter::Rewrite(p, *open);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 2u);
  Instance edb = Instance::FromProgram(p);
  EXPECT_EQ(UcqRewriter::Answers(p, edb, *open)->size(), 1u);

  auto grounded = Parser::ParseQuery("Q(X) :- HasParent(X, \"eve\").",
                                     p.mutable_vocab());
  ASSERT_TRUE(grounded.ok());
  auto ucq2 = UcqRewriter::Rewrite(p, *grounded);
  ASSERT_TRUE(ucq2.ok());
  EXPECT_EQ(ucq2->size(), 1u);  // applicability blocks the rewriting
  EXPECT_EQ(UcqRewriter::Answers(p, edb, *grounded)->size(), 0u);
}

TEST(UcqRewriter, ExistentialApplicabilityAnswerVariable) {
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  // Z is an answer variable: certain answers cannot bind it to the null,
  // so the rewriting must not apply.
  auto q = Parser::ParseQuery("Q(X, Z) :- HasParent(X, Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto ucq = UcqRewriter::Rewrite(p, *q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 1u);
}

TEST(UcqRewriter, ExistentialApplicabilitySharedVariable) {
  Program p = Parse(
      "Person(\"ann\"). Rich(\"bob\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  // Z is shared with Rich(Z): the null would have to be "bob" — blocked.
  auto q = Parser::ParseQuery("Q(X) :- HasParent(X, Z), Rich(Z).",
                              p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto ucq = UcqRewriter::Rewrite(p, *q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 1u);
  Instance edb = Instance::FromProgram(p);
  EXPECT_EQ(UcqRewriter::Answers(p, edb, *q)->size(), 0u);
}

TEST(UcqRewriter, FactorizationEnablesRewriting) {
  // Two atoms must be unified before the existential step applies.
  Program p = Parse(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  auto q = Parser::ParseQuery(
      "Q(X) :- HasParent(X, Z), HasParent(X2, Z).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  Instance edb = Instance::FromProgram(p);
  auto answers = UcqRewriter::Answers(p, edb, *q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  // Chase semantics: HasParent(ann, n1) joins with itself, so X = ann.
  EXPECT_EQ(answers->size(), 1u);
}

TEST(UcqRewriter, ComparisonsSurviveRewriting) {
  Program p = Parse(
      "M(\"a\", 5). M(\"b\", 50).\n"
      "Big(X, V) :- M(X, V), V > 10.\n");
  auto q = Parser::ParseQuery("Q(X) :- Big(X, V).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  Instance edb = Instance::FromProgram(p);
  auto answers = UcqRewriter::Answers(p, edb, *q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 1u);
}

TEST(UcqRewriter, MultiAtomHeadsUnsupported) {
  Program p = Parse("IU(I, U), PU(U, P) :- D(I, P).\n");
  auto q = Parser::ParseQuery("Q(U) :- PU(U, P).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  auto ucq = UcqRewriter::Rewrite(p, *q);
  ASSERT_FALSE(ucq.ok());
  EXPECT_EQ(ucq.status().code(), StatusCode::kUnimplemented);
}

TEST(UcqRewriter, RecursiveProgramExhaustsBudget) {
  // Not FO-rewritable: the UCQ grows until the 20,000-CQ refusal, with
  // or without a budget.
  Program p = Parse("T(X, Z) :- T(X, Y), T(Y, Z).\n");
  auto q = Parser::ParseQuery("Q(X, Z) :- T(X, Z).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  RewriteStats stats;
  auto ucq = UcqRewriter::Rewrite(p, *q, RewriteOptions{}, &stats);
  ASSERT_FALSE(ucq.ok());
  EXPECT_EQ(ucq.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stats.generated, 20'000u);
}

TEST(UcqRewriter, AgreesWithChaseOnHierarchy) {
  Program p = Parse(
      "PW(\"w1\", \"tom\"). PW(\"w2\", \"lou\"). PW(\"w3\", \"sue\").\n"
      "UW(\"std\", \"w1\"). UW(\"std\", \"w2\"). UW(\"icu\", \"w3\").\n"
      "PU(U, P) :- PW(W, P), UW(U, W).\n");
  for (const char* text :
       {"Q(U, P) :- PU(U, P).", "Q(P) :- PU(\"std\", P).",
        "Q(U) :- PU(U, \"sue\")."}) {
    auto q = Parser::ParseQuery(text, p.mutable_vocab());
    ASSERT_TRUE(q.ok());
    Instance edb = Instance::FromProgram(p);
    auto via_rewrite = UcqRewriter::Answers(p, edb, *q);
    ASSERT_TRUE(via_rewrite.ok()) << via_rewrite.status();
    auto chase = ChaseQa::Create(p);
    ASSERT_TRUE(chase.ok());
    auto via_chase = chase->Answers(*q);
    ASSERT_TRUE(via_chase.ok());
    auto a = via_rewrite.value();
    auto b = via_chase.value();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << text;
  }
}

TEST(UcqRewriter, StatsAreReported) {
  Program p = Parse(
      "A(\"x\").\n"
      "B(X) :- A(X).\n");
  auto q = Parser::ParseQuery("Q(X) :- B(X).", p.mutable_vocab());
  ASSERT_TRUE(q.ok());
  RewriteStats stats;
  auto ucq = UcqRewriter::Rewrite(p, *q, RewriteOptions{}, &stats);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(stats.kept, 2u);
  EXPECT_GE(stats.generated, 2u);
  EXPECT_GE(stats.iterations, 1u);
}

}  // namespace
}  // namespace mdqa::qa
