#include "datalog/parser.h"

#include "datalog/chase.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace mdqa::datalog {
namespace {

TEST(Parser, GroundFacts) {
  auto p = Parser::ParseProgram(
      "Ward(\"W1\").\n"
      "UnitWard(\"Standard\", \"W1\").\n"
      "Score(1, 2.5, bob).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->facts().size(), 3u);
  EXPECT_TRUE(p->rules().empty());
  const Vocabulary& v = *p->vocab();
  // Lowercase bare identifiers are string constants.
  EXPECT_EQ(v.AtomToString(p->facts()[2]), "Score(1, 2.5, \"bob\")");
}

TEST(Parser, PlainRule) {
  auto p = Parser::ParseProgram("Anc(X, Y) :- Par(X, Y).");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->rules().size(), 1u);
  const Rule& r = p->rules()[0];
  EXPECT_TRUE(r.IsTgd());
  EXPECT_TRUE(r.IsPlainDatalog());
  EXPECT_EQ(r.head.size(), 1u);
  EXPECT_EQ(r.body.size(), 1u);
}

TEST(Parser, ArrowSynonym) {
  auto p = Parser::ParseProgram("A(X) <- B(X).");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->rules().size(), 1u);
}

TEST(Parser, ExistentialVariablesAreImplicit) {
  auto p = Parser::ParseProgram("Shifts(W, D, N, Z) :- Ws(U, D, N), E(U, W).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules()[0];
  auto exist = r.ExistentialVariables();
  ASSERT_EQ(exist.size(), 1u);
  EXPECT_EQ(p->vocab()->VariableName(exist[0]), "Z");
}

TEST(Parser, MultiAtomHeadForm10) {
  auto p = Parser::ParseProgram(
      "InstitutionUnit(I, U), PatientUnit(U, D, P) :- Discharge(I, D, P).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules()[0];
  EXPECT_EQ(r.head.size(), 2u);
  EXPECT_EQ(r.ExistentialVariables().size(), 1u);
}

TEST(Parser, NegativeConstraint) {
  auto p = Parser::ParseProgram("! :- P(X), Q(X).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules()[0];
  EXPECT_TRUE(r.IsConstraint());
  EXPECT_TRUE(r.head.empty());
  EXPECT_EQ(r.body.size(), 2u);
}

TEST(Parser, Egd) {
  auto p = Parser::ParseProgram("T = T2 :- Th(W, T), Th(W2, T2), U(W, W2).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules()[0];
  EXPECT_TRUE(r.IsEgd());
  EXPECT_TRUE(r.egd_lhs.IsVariable());
  EXPECT_TRUE(r.egd_rhs.IsVariable());
}

TEST(Parser, BodyEqualityIsComparisonNotEgd) {
  auto p = Parser::ParseProgram("Q2(X) :- P(X, Y), Y = \"yes\".");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules()[0];
  EXPECT_TRUE(r.IsTgd());
  ASSERT_EQ(r.comparisons.size(), 1u);
  EXPECT_EQ(r.comparisons[0].op, CmpOp::kEq);
}

TEST(Parser, AllComparisonOperators) {
  auto p = Parser::ParseProgram(
      "Q2(X) :- P(X), X = 1.\n"
      "Q3(X) :- P(X), X != 1.\n"
      "Q4(X) :- P(X), X < 1.\n"
      "Q5(X) :- P(X), X <= 1.\n"
      "Q6(X) :- P(X), X > 1.\n"
      "Q7(X) :- P(X), X >= 1.\n");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->rules().size(), 6u);
  EXPECT_EQ(p->rules()[0].comparisons[0].op, CmpOp::kEq);
  EXPECT_EQ(p->rules()[1].comparisons[0].op, CmpOp::kNe);
  EXPECT_EQ(p->rules()[2].comparisons[0].op, CmpOp::kLt);
  EXPECT_EQ(p->rules()[3].comparisons[0].op, CmpOp::kLe);
  EXPECT_EQ(p->rules()[4].comparisons[0].op, CmpOp::kGt);
  EXPECT_EQ(p->rules()[5].comparisons[0].op, CmpOp::kGe);
}

TEST(Parser, SemicolonIsCosmeticComma) {
  // The paper writes R(ē; ā) separating categorical from plain attributes.
  auto p = Parser::ParseProgram("PatientWard(\"W1\", \"Sep/5\"; \"Tom\").");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->facts()[0].arity(), 3u);
}

TEST(Parser, CommentsAndWhitespace) {
  auto p = Parser::ParseProgram(
      "% a comment\n"
      "# another\n"
      "  P(X) :- Q(X). % trailing\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->rules().size(), 1u);
}

TEST(Parser, AnonymousVariableIsFreshPerOccurrence) {
  auto p = Parser::ParseProgram("P2(X) :- Q(X, _, _).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Atom& q = p->rules()[0].body[0];
  ASSERT_EQ(q.arity(), 3u);
  EXPECT_TRUE(q.terms[1].IsVariable());
  EXPECT_TRUE(q.terms[2].IsVariable());
  EXPECT_NE(q.terms[1], q.terms[2]);
}

TEST(Parser, QuotedStringsWithEscapes) {
  auto p = Parser::ParseProgram("P(\"a \\\"quote\\\" b\").");
  ASSERT_TRUE(p.ok()) << p.status();
  const Vocabulary& v = *p->vocab();
  EXPECT_EQ(v.ConstantValue(p->facts()[0].terms[0].id()).AsString(),
            "a \"quote\" b");
}

TEST(Parser, NumbersIncludingNegativeAndFloat) {
  auto p = Parser::ParseProgram("P(-3, 38.2, +7).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Vocabulary& v = *p->vocab();
  EXPECT_EQ(v.ConstantValue(p->facts()[0].terms[0].id()).AsInt(), -3);
  EXPECT_DOUBLE_EQ(v.ConstantValue(p->facts()[0].terms[1].id()).AsDouble(),
                   38.2);
  EXPECT_EQ(v.ConstantValue(p->facts()[0].terms[2].id()).AsInt(), 7);
}

// A numeral out of int64_t/double range is a string constant of its
// text: it neither reads as 0 nor aborts the parser.
TEST(Parser, OutOfRangeNumeralsAreStringConstants) {
  const std::string huge = std::string(400, '9') + ".5";
  auto p = Parser::ParseProgram("P(99999999999999999999). P(" + huge + ").");
  ASSERT_TRUE(p.ok()) << p.status();
  const Vocabulary& v = *p->vocab();
  ASSERT_EQ(p->facts().size(), 2u);
  EXPECT_EQ(v.ConstantValue(p->facts()[0].terms[0].id()),
            Value::Str("99999999999999999999"));
  EXPECT_EQ(v.ConstantValue(p->facts()[1].terms[0].id()), Value::Str(huge));
}

TEST(Parser, StatementPeriodVersusDecimalPoint) {
  auto p = Parser::ParseProgram("P(1).Q(2.5).");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->facts().size(), 2u);
}

TEST(Parser, ArityIsEnforcedAcrossStatements) {
  auto p = Parser::ParseProgram("P(1, 2). Q(X) :- P(X).");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  auto p = Parser::ParseProgram("P(1).\nQ(,).\n");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 2"), std::string::npos);
}

TEST(Parser, RejectsUnterminatedString) {
  EXPECT_FALSE(Parser::ParseProgram("P(\"oops).").ok());
}

TEST(Parser, RejectsMissingPeriod) {
  EXPECT_FALSE(Parser::ParseProgram("P(X) :- Q(X)").ok());
}

TEST(Parser, RejectsBodylessConstraint) {
  EXPECT_FALSE(Parser::ParseProgram("! :- X = 1.").ok());
}

TEST(Parser, RejectsEgdOnConstants) {
  // EGD head must equate two body variables.
  EXPECT_FALSE(Parser::ParseProgram("X = 1 :- P(X).").ok());
}

TEST(Parser, ParseQuery) {
  Vocabulary vocab;
  auto q = Parser::ParseQuery(
      "Q(T, V) :- Meas(T, P, V), P = \"Tom\", T >= 100.", &vocab);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->answer.size(), 2u);
  EXPECT_EQ(q->body.size(), 1u);
  EXPECT_EQ(q->comparisons.size(), 2u);
  EXPECT_EQ(q->name, "Q");
}

TEST(Parser, ParseBooleanQuery) {
  Vocabulary vocab;
  auto q = Parser::ParseQuery("Q() :- P(X, Y).", &vocab);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->IsBoolean());
}

TEST(Parser, QueryAnswerVariablesMustOccurInBody) {
  Vocabulary vocab;
  EXPECT_FALSE(Parser::ParseQuery("Q(Z) :- P(X).", &vocab).ok());
}

TEST(Parser, ParseGroundAtom) {
  Vocabulary vocab;
  auto a = Parser::ParseGroundAtom("P(\"x\", 3)", &vocab);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->arity(), 2u);
  EXPECT_FALSE(Parser::ParseGroundAtom("P(X)", &vocab).ok());
}

TEST(Parser, RoundTripThroughToString) {
  const char* text =
      "PatientUnit(U, D, P) :- PatientWard(W, D, P), UnitWard(U, W).\n"
      "T = T2 :- Th(W, T), Th(W2, T2), UW(U, W), UW(U, W2).\n"
      "! :- PW(W), UW(\"Intensive\", W).\n"
      "PW(\"W1\").\n";
  auto p1 = Parser::ParseProgram(text);
  ASSERT_TRUE(p1.ok()) << p1.status();
  std::string printed = p1->ToString();
  auto p2 = Parser::ParseProgram(printed);
  ASSERT_TRUE(p2.ok()) << "reparse failed on:\n" << printed << "\n"
                       << p2.status();
  EXPECT_EQ(p2->ToString(), printed);
}

TEST(Parser, NullLiteralsRoundTrip) {
  // `_nK` is the serialized spelling of labeled null ⊥_K.
  auto p = Parser::ParseProgram("Shifts(\"W2\", _n0, _n3).");
  ASSERT_TRUE(p.ok()) << p.status();
  const Atom& f = p->facts()[0];
  EXPECT_TRUE(f.terms[1].IsNull());
  EXPECT_EQ(f.terms[1].id(), 0u);
  EXPECT_EQ(f.terms[2].id(), 3u);
  // Fresh nulls minted afterwards never collide with parsed ones.
  EXPECT_GE(p->mutable_vocab()->FreshNull().id(), 4u);
  // And the printed form re-parses identically.
  auto p2 = Parser::ParseProgram(p->ToString());
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_EQ(p2->ToString(), p->ToString());
}

// A `_n<k>` id must lie below UINT32_MAX: beyond uint64 it used to throw,
// 2^32 aliased _n0, and UINT32_MAX wrapped the fresh-null counter to 0.
// Each is now a syntax error at the null's token.
TEST(Parser, NullIdsOutOfRangeAreSyntaxErrors) {
  for (const char* text :
       {"P(_n99999999999999999999999).", "P(_n4294967296). P(_n0).",
        "P(_n4294967295)."}) {
    Program program;
    ParseReport report;
    Status s = Parser::ParseInto(text, &program, &report);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(report.error_kind, ParseReport::ErrorKind::kSyntax) << text;
    EXPECT_EQ(report.error_span, (SourceSpan{1, 3})) << text;
    EXPECT_EQ(program.vocab()->NumNulls(), 0u) << text;
  }
  // The largest id below UINT32_MAX still parses and reserves its slot.
  auto p = Parser::ParseProgram("P(_n4294967294).");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->facts()[0].terms[0].id(), 4294967294u);
  EXPECT_EQ(p->vocab()->NumNulls(), 4294967295u);
}

TEST(Vocabulary, ReserveNullsThroughSaturates) {
  Vocabulary vocab;
  vocab.ReserveNullsThrough(std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(vocab.NumNulls(), std::numeric_limits<uint32_t>::max());
}

TEST(Parser, UnderscoreNamesThatAreNotNullsStayVariables) {
  auto p = Parser::ParseProgram("P(_name, _n, _n2x) :- Q(_name, _n, _n2x).");
  ASSERT_TRUE(p.ok()) << p.status();
  for (Term t : p->rules()[0].body[0].terms) {
    EXPECT_TRUE(t.IsVariable());
  }
}

TEST(Parser, ChasedInstanceSerializationRoundTrips) {
  auto p = Parser::ParseProgram(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  ASSERT_TRUE(Chase::Run(*p, &inst, ChaseOptions()).ok());
  std::string serialized = inst.ToString();
  EXPECT_NE(serialized.find("_n0"), std::string::npos);
  auto reloaded = Parser::ParseProgram(serialized);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status() << "\n" << serialized;
  Instance inst2 = Instance::FromProgram(*reloaded);
  EXPECT_EQ(inst2.ToString(), serialized);
}

TEST(Parser, ParseIntoSharesVocabulary) {
  Program program;
  ASSERT_TRUE(Parser::ParseInto("P(\"a\").", &program).ok());
  ASSERT_TRUE(Parser::ParseInto("Q2(X) :- P(X).", &program).ok());
  EXPECT_EQ(program.facts().size(), 1u);
  EXPECT_EQ(program.rules().size(), 1u);
  // Same predicate id across calls.
  EXPECT_EQ(program.facts()[0].predicate,
            program.rules()[0].body[0].predicate);
}

TEST(ParserSpans, FactsRulesAndAtomsCarryLineAndColumn) {
  auto p = Parser::ParseProgram(
      "Par(\"ann\", \"bob\").\n"
      "Anc(X, Y) :- Par(X, Y).\n"
      "  Anc(X, Z) :- Anc(X, Y), Par(Y, Z).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->facts()[0].span, (SourceSpan{1, 1}));
  ASSERT_EQ(p->rules().size(), 2u);
  EXPECT_EQ(p->rules()[0].span, (SourceSpan{2, 1}));
  EXPECT_EQ(p->rules()[0].body[0].span, (SourceSpan{2, 14}));
  EXPECT_EQ(p->rules()[1].span, (SourceSpan{3, 3}));  // indentation counts
  EXPECT_EQ(p->rules()[1].body[1].span, (SourceSpan{3, 27}));
}

TEST(ParserSpans, SpansDoNotAffectEquality) {
  auto a = Parser::ParseProgram("P(\"x\").");
  auto b = Parser::ParseProgram("\n\n   P(\"x\").");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->facts()[0].span, b->facts()[0].span);
  EXPECT_EQ(a->facts()[0], b->facts()[0]);
}

TEST(ParseReportTest, SyntaxErrorKindAndSpan) {
  Program program;
  ParseReport report;
  Status s = Parser::ParseInto("P(X :- Q(X).", &program, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(report.error_kind, ParseReport::ErrorKind::kSyntax);
  EXPECT_EQ(report.error_span, (SourceSpan{1, 5}));
}

TEST(ParseReportTest, ArityErrorKindAndSpan) {
  Program program;
  ParseReport report;
  Status s =
      Parser::ParseInto("P(\"a\").\nP(\"a\", \"b\").", &program, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(report.error_kind, ParseReport::ErrorKind::kArity);
  EXPECT_EQ(report.error_span, (SourceSpan{2, 1}));
}

TEST(ParseReportTest, ValidationErrorKindAndSpan) {
  Program program;
  ParseReport report;
  Status s = Parser::ParseInto("P(\"a\", \"b\").\nX = Y :- P(X, X2).",
                               &program, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(report.error_kind, ParseReport::ErrorKind::kValidation);
  EXPECT_EQ(report.error_span, (SourceSpan{2, 1}));
}

TEST(ParseReportTest, DuplicateRuleDroppedWithIssue) {
  Program program;
  ParseReport report;
  Status s = Parser::ParseInto(
      "P(\"a\").\nQ(X) :- P(X).\nQ(X) :- P(X).\nQ(X) :- P(X), P(X).",
      &program, &report);
  ASSERT_TRUE(s.ok()) << s;
  // The literal duplicate is dropped; the structurally different rule
  // (even if logically equivalent) is kept.
  EXPECT_EQ(program.rules().size(), 2u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, ParseIssue::Kind::kDuplicateRule);
  EXPECT_EQ(report.issues[0].span, (SourceSpan{3, 1}));
  EXPECT_NE(report.issues[0].message.find("duplicate rule"),
            std::string::npos);
}

TEST(ParseReportTest, DuplicateFactsAreNotDeduplicated) {
  // Fact dedup is Program/Instance business (sets), not a lint issue.
  Program program;
  ParseReport report;
  ASSERT_TRUE(
      Parser::ParseInto("P(\"a\").\nP(\"a\").", &program, &report).ok());
  EXPECT_TRUE(report.issues.empty());
}

}  // namespace
}  // namespace mdqa::datalog
