#include "datalog/cq_eval.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"
#include "datalog/unify.h"

namespace mdqa::datalog {
namespace {

class CqEvalTest : public ::testing::Test {
 protected:
  void Load(const std::string& text) {
    auto p = Parser::ParseProgram(text);
    ASSERT_TRUE(p.ok()) << p.status();
    program_ = std::make_unique<Program>(std::move(p).value());
    instance_ = std::make_unique<Instance>(Instance::FromProgram(*program_));
  }

  std::vector<std::vector<Term>> Ask(const std::string& query_text) {
    auto q = Parser::ParseQuery(query_text, program_->mutable_vocab());
    EXPECT_TRUE(q.ok()) << q.status();
    CqEvaluator eval(*instance_);
    auto answers = eval.Answers(*q);
    EXPECT_TRUE(answers.ok()) << answers.status();
    return answers.ok() ? std::move(answers).value()
                        : std::vector<std::vector<Term>>{};
  }

  bool AskBool(const std::string& query_text) {
    auto q = Parser::ParseQuery(query_text, program_->mutable_vocab());
    EXPECT_TRUE(q.ok()) << q.status();
    CqEvaluator eval(*instance_);
    auto r = eval.AnswerBoolean(*q);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  }

  std::unique_ptr<Program> program_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(CqEvalTest, SingleAtomScan) {
  Load("P(\"a\"). P(\"b\").");
  EXPECT_EQ(Ask("Q(X) :- P(X).").size(), 2u);
}

TEST_F(CqEvalTest, ConstantSelection) {
  Load("P(\"a\", 1). P(\"b\", 2). P(\"a\", 3).");
  EXPECT_EQ(Ask("Q(Y) :- P(\"a\", Y).").size(), 2u);
  EXPECT_EQ(Ask("Q(Y) :- P(\"c\", Y).").size(), 0u);
}

TEST_F(CqEvalTest, JoinAcrossAtoms) {
  Load(
      "Parent(\"a\", \"b\"). Parent(\"b\", \"c\"). Parent(\"b\", \"d\").\n");
  auto grandchildren = Ask("Q(Z) :- Parent(\"a\", Y), Parent(Y, Z).");
  EXPECT_EQ(grandchildren.size(), 2u);
}

TEST_F(CqEvalTest, RepeatedVariableWithinAtom) {
  Load("E(\"a\", \"a\"). E(\"a\", \"b\").");
  auto loops = Ask("Q(X) :- E(X, X).");
  ASSERT_EQ(loops.size(), 1u);
}

TEST_F(CqEvalTest, TriangleJoin) {
  Load(
      "E(1, 2). E(2, 3). E(3, 1). E(1, 3).\n");
  // Triangles: 1-2-3-1 exists.
  EXPECT_TRUE(AskBool("Q() :- E(X, Y), E(Y, Z), E(Z, X)."));
}

TEST_F(CqEvalTest, EmptyPredicateGivesNoAnswers) {
  Load("P(\"a\").");
  // R never occurs as a fact; intern it via a query mentioning it.
  EXPECT_EQ(Ask("Q(X) :- P(X), P(Y), Q0(X, Y).").size(), 0u);
}

TEST_F(CqEvalTest, ComparisonsPrune) {
  Load("M(1, 10). M(2, 20). M(3, 30).");
  EXPECT_EQ(Ask("Q(X) :- M(X, V), V > 15.").size(), 2u);
  EXPECT_EQ(Ask("Q(X) :- M(X, V), V >= 10, V < 30.").size(), 2u);
  EXPECT_EQ(Ask("Q(X) :- M(X, V), V != 20.").size(), 2u);
  EXPECT_EQ(Ask("Q(X) :- M(X, V), X = 2.").size(), 1u);
}

TEST_F(CqEvalTest, StringComparisonsAreLexicographic) {
  Load("T(\"Sep/5-11:00\"). T(\"Sep/5-12:10\"). T(\"Sep/5-13:00\").");
  EXPECT_EQ(
      Ask("Q(X) :- T(X), X >= \"Sep/5-11:45\", X <= \"Sep/5-12:15\".").size(),
      1u);
}

TEST_F(CqEvalTest, NumericComparisonAcrossIntAndDouble) {
  Load("V(1). V(2.5). V(3).");
  EXPECT_EQ(Ask("Q(X) :- V(X), X > 2.").size(), 2u);
  EXPECT_EQ(Ask("Q(X) :- V(X), X >= 2.5.").size(), 2u);
}

TEST_F(CqEvalTest, VariableToVariableComparison) {
  Load("P2(1, 2). P2(2, 2). P2(3, 1).");
  EXPECT_EQ(Ask("Q(X, Y) :- P2(X, Y), X < Y.").size(), 1u);
  EXPECT_EQ(Ask("Q(X, Y) :- P2(X, Y), X = Y.").size(), 1u);
}

TEST_F(CqEvalTest, UnboundComparisonVariableIsAnError) {
  Load("P(1).");
  auto q = Parser::ParseQuery("Q(X) :- P(X), Y > 1.",
                              program_->mutable_vocab());
  // Validation catches the unbound comparison variable.
  ASSERT_FALSE(q.ok());
}

TEST_F(CqEvalTest, AnswersAreDeduplicated) {
  Load("P(\"a\", 1). P(\"a\", 2).");
  EXPECT_EQ(Ask("Q(X) :- P(X, Y).").size(), 1u);
}

TEST_F(CqEvalTest, ConstantsInAnswerAreEchoed) {
  Load("P(\"a\").");
  auto rows = Ask("Q(X, 7) :- P(X).");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 2u);
  EXPECT_TRUE(rows[0][1].IsConstant());
}

TEST_F(CqEvalTest, BooleanQueries) {
  Load("P(\"a\").");
  EXPECT_TRUE(AskBool("Q() :- P(X)."));
  EXPECT_FALSE(AskBool("Q() :- P(X), P(Y), X != Y."));
}

TEST_F(CqEvalTest, NullsJoinOnlyWithThemselves) {
  Load("P(\"a\").");
  Vocabulary* vocab = program_->mutable_vocab();
  ASSERT_TRUE(vocab->InternPredicate("N", 1).ok());
  uint32_t pred = vocab->FindPredicate("N");
  Term null0 = *vocab->FreshNull();
  instance_->AddFact(Atom(pred, {null0}), 1);
  instance_->AddFact(Atom(pred, {*vocab->FreshNull()}), 1);

  // Self-join through the same variable: each null matches itself only.
  EXPECT_EQ(Ask("Q(X) :- N(X), N(X).").size(), 2u);
  // Nulls never compare equal to constants.
  EXPECT_EQ(Ask("Q(X) :- N(X), X = \"a\".").size(), 0u);
  // Order comparisons on nulls are never certain.
  EXPECT_EQ(Ask("Q(X) :- N(X), X > \"a\".").size(), 0u);
  // Null identity equality holds.
  EXPECT_EQ(Ask("Q(X, Y) :- N(X), N(Y), X != Y.").size(), 2u);
}

TEST_F(CqEvalTest, HasNullDetector) {
  Vocabulary vocab;
  EXPECT_FALSE(CqEvaluator::HasNull({Term::Constant(0)}));
  EXPECT_TRUE(CqEvaluator::HasNull({Term::Constant(0), Term::Null(0)}));
}

TEST_F(CqEvalTest, LevelWindowsRestrictMatching) {
  Load("P(\"a\").");
  Vocabulary* vocab = program_->mutable_vocab();
  uint32_t pred = vocab->FindPredicate("P");
  instance_->AddFact(Atom(pred, {vocab->Str("b")}), 1);
  instance_->AddFact(Atom(pred, {vocab->Str("c")}), 2);

  auto q = Parser::ParseQuery("Q(X) :- P(X).", vocab);
  ASSERT_TRUE(q.ok());
  CqEvaluator eval(*instance_);
  std::vector<AtomLevelWindow> windows(1);
  windows[0].min_level = 1;
  windows[0].max_level = 1;
  size_t count = 0;
  ASSERT_TRUE(eval.Enumerate(q->body, q->comparisons, Subst{}, windows,
                             [&count](const Subst&) {
                               ++count;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(count, 1u);  // only "b" sits at level 1
}

TEST_F(CqEvalTest, EnumerateHonorsInitialSubstitution) {
  Load("P(\"a\", 1). P(\"b\", 2).");
  auto q = Parser::ParseQuery("Q(X, Y) :- P(X, Y).",
                              program_->mutable_vocab());
  ASSERT_TRUE(q.ok());
  Subst initial;
  initial[q->answer[0].id()] = program_->mutable_vocab()->Str("a");
  CqEvaluator eval(*instance_);
  size_t count = 0;
  ASSERT_TRUE(eval.Enumerate(q->body, q->comparisons, initial, {},
                             [&count](const Subst&) {
                               ++count;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(CqEvalTest, EarlyStopViaCallback) {
  Load("P(1). P(2). P(3).");
  auto q = Parser::ParseQuery("Q(X) :- P(X).", program_->mutable_vocab());
  ASSERT_TRUE(q.ok());
  CqEvaluator eval(*instance_);
  size_t count = 0;
  ASSERT_TRUE(eval.Enumerate(q->body, q->comparisons, Subst{}, {},
                             [&count](const Subst&) {
                               ++count;
                               return false;  // stop immediately
                             })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(CqEvalTest, StatsCountProbesAndSolutions) {
  Load("P(\"a\", 1). P(\"a\", 2). P(\"b\", 3).");
  auto q = Parser::ParseQuery("Q(Y) :- P(\"a\", Y).",
                              program_->mutable_vocab());
  ASSERT_TRUE(q.ok());
  EvalStats stats;
  CqEvaluator eval(*instance_, &stats);
  auto answers = eval.Answers(*q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_EQ(stats.solutions, 2u);
  // The constant selection goes through the index, not a scan, and only
  // the two matching rows are tried.
  EXPECT_GE(stats.index_probes, 1u);
  EXPECT_EQ(stats.full_scans, 0u);
  EXPECT_EQ(stats.rows_tried, 2u);
}

TEST_F(CqEvalTest, StatsCountScansWhenNothingIsBound) {
  Load("P(1). P(2). P(3).");
  auto q = Parser::ParseQuery("Q(X) :- P(X).", program_->mutable_vocab());
  ASSERT_TRUE(q.ok());
  EvalStats stats;
  CqEvaluator eval(*instance_, &stats);
  ASSERT_TRUE(eval.Answers(*q).ok());
  EXPECT_EQ(stats.full_scans, 1u);
  EXPECT_EQ(stats.rows_tried, 3u);
  EXPECT_EQ(stats.atoms_matched, 3u);
}

TEST_F(CqEvalTest, SatisfiableShortCircuits) {
  Load("P(1). P(2).");
  auto q = Parser::ParseQuery("Q() :- P(X).", program_->mutable_vocab());
  ASSERT_TRUE(q.ok());
  CqEvaluator eval(*instance_);
  auto sat = eval.Satisfiable(q->body, q->comparisons, Subst{});
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(*sat);
}

// The interruption contract of Answers and AnswerBoolean. With the
// out-param, a budget trip returns what was found so far (sound) plus
// the truncation status. Without it, failing with that status is the
// only way the caller can learn the result is partial, so the call
// fails. P has 200 rows; a 64-step cap trips at the second poll, after
// 128 rows.
class CqEvalBudgetTest : public CqEvalTest {
 protected:
  void SetUp() override {
    std::string facts;
    for (int i = 0; i < 200; ++i) facts += "P(" + std::to_string(i) + "). ";
    Load(facts);
    budget_.set_max_steps(64);
  }

  ConjunctiveQuery Query(const std::string& text) {
    auto q = Parser::ParseQuery(text, program_->mutable_vocab());
    EXPECT_TRUE(q.ok()) << q.status();
    return q.ok() ? std::move(q).value() : ConjunctiveQuery{};
  }

  ExecutionBudget budget_;
};

TEST_F(CqEvalBudgetTest, AnswersTripReturnsSubsetWithOutParamElseFails) {
  const ConjunctiveQuery q = Query("Q(X) :- P(X).");
  const std::vector<std::vector<Term>> full = Ask("Q(X) :- P(X).");
  ASSERT_EQ(full.size(), 200u);

  CqEvaluator eval(*instance_, nullptr, &budget_);
  Status interruption;
  auto partial = eval.Answers(q, &interruption);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(interruption.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(partial->size(), 0u);
  EXPECT_LT(partial->size(), full.size());
  for (const std::vector<Term>& tuple : *partial) {
    EXPECT_NE(std::find(full.begin(), full.end(), tuple), full.end());
  }

  budget_.ResetUsage();
  auto failed = eval.Answers(q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().ToString(), interruption.ToString());
}

TEST_F(CqEvalBudgetTest, AnswerBooleanTripReportsFalseWithOutParamElseFails) {
  // No row satisfies the comparison, so only a full scan proves "no".
  const ConjunctiveQuery q = Query("Q() :- P(X), X > 500.");
  EXPECT_FALSE(AskBool("Q() :- P(X), X > 500."));

  CqEvaluator eval(*instance_, nullptr, &budget_);
  Status interruption;
  auto partial = eval.AnswerBoolean(q, &interruption);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(*partial);
  EXPECT_EQ(interruption.code(), StatusCode::kResourceExhausted);

  budget_.ResetUsage();
  auto failed = eval.AnswerBoolean(q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().ToString(), interruption.ToString());
}

}  // namespace
}  // namespace mdqa::datalog
