// Parameterized sweep over chase configurations: every combination of
// {semi-naive, naive} × {interleaved, post, off EGDs} must produce the
// same certain answers on a battery of programs (post/off EGD modes only
// where semantics permit). Cell names keep their `Restricted` segment
// (the chase is the restricted chase) so the test IDs stay stable.

#include <gtest/gtest.h>

#include <tuple>

#include "datalog/chase.h"
#include "datalog/parser.h"
#include "qa/chase_qa.h"
#include "scenarios/hospital.h"

namespace mdqa::datalog {
namespace {

struct Case {
  const char* name;
  const char* program;
  const char* query;
  bool egds_matter;  // kOff would change answers; skip that mode
};

const Case kCases[] = {
    {"closure",
     "E(1, 2). E(2, 3). E(3, 4).\n"
     "T(X, Y) :- E(X, Y).\n"
     "T(X, Z) :- T(X, Y), E(Y, Z).\n",
     "Q(X, Y) :- T(X, Y).", false},
    {"hierarchy",
     "PW(\"w1\", \"tom\"). PW(\"w2\", \"lou\").\n"
     "UW(\"std\", \"w1\"). UW(\"std\", \"w2\").\n"
     "PU(U, P) :- PW(W, P), UW(U, W).\n",
     "Q(U, P) :- PU(U, P).", false},
    {"downward-existential",
     "WS(\"std\", \"helen\"). UW(\"std\", \"w1\"). UW(\"std\", \"w2\").\n"
     "SH(W, N, Z) :- WS(U, N), UW(U, W).\n",
     "Q(W, N) :- SH(W, N, S).", false},
    {"egd-resolution",
     "P(\"a\"). F(\"a\", \"v\").\n"
     "R(X, Z) :- P(X).\n"
     "Y = Z :- F(X, Y), R(X, Z).\n",
     "Q(X, Z) :- R(X, Z).", true},
    {"multi-head",
     "D(\"h\", \"d\", \"p\").\n"
     "IU(I, U), PU2(U, D, P) :- D(I, D, P).\n",
     "Q(I, D, P) :- IU(I, U), PU2(U, D, P).", false},
};

using SweepParam = std::tuple<int /*case*/, bool /*semi_naive*/,
                              int /*egd mode*/>;

class ChaseConfigSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ChaseConfigSweep, CertainAnswersInvariant) {
  const Case& c = kCases[std::get<0>(GetParam())];
  ChaseOptions options;
  options.semi_naive = std::get<1>(GetParam());
  options.egd_mode = static_cast<EgdMode>(std::get<2>(GetParam()));
  if (c.egds_matter && options.egd_mode == EgdMode::kOff) {
    GTEST_SKIP() << "EGD-off changes semantics for this case";
  }

  auto reference_program = Parser::ParseProgram(c.program);
  ASSERT_TRUE(reference_program.ok());
  auto reference_qa = qa::ChaseQa::Create(*reference_program);
  ASSERT_TRUE(reference_qa.ok()) << reference_qa.status();
  auto reference_query =
      Parser::ParseQuery(c.query, reference_program->vocab().get());
  ASSERT_TRUE(reference_query.ok());
  auto expected = reference_qa->Answers(*reference_query);
  ASSERT_TRUE(expected.ok());

  auto program = Parser::ParseProgram(c.program);
  ASSERT_TRUE(program.ok());
  auto qa = qa::ChaseQa::Create(*program, options);
  ASSERT_TRUE(qa.ok()) << qa.status();
  auto query = Parser::ParseQuery(c.query, program->vocab().get());
  ASSERT_TRUE(query.ok());
  auto actual = qa->Answers(*query);
  ASSERT_TRUE(actual.ok()) << actual.status();

  // Compare through display strings (independent vocabularies).
  auto render = [](const std::vector<std::vector<Term>>& tuples,
                   const Vocabulary& vocab) {
    std::vector<std::string> out;
    for (const auto& t : tuples) {
      std::string row;
      for (Term x : t) row += vocab.TermToDisplayString(x) + "|";
      out.push_back(row);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(*actual, *program->vocab()),
            render(*expected, *reference_program->vocab()))
      << c.name;
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  static const char* const kEgdNames[] = {"EgdOff", "EgdPost",
                                          "EgdInterleaved"};
  std::string name = kCases[std::get<0>(info.param)].name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += std::get<1>(info.param) ? "_SemiNaive" : "_Naive";
  name += "_Restricted_";
  name += kEgdNames[std::get<2>(info.param)];
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ChaseConfigSweep,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Bool(),
                       ::testing::Values(0, 1, 2)),
    SweepName);

// The hospital ontology under both evaluation modes: Table II invariant.
class HospitalConfigSweep : public ::testing::TestWithParam<bool> {};

TEST_P(HospitalConfigSweep, TableTwoInvariant) {
  auto ontology =
      scenarios::BuildHospitalOntology(scenarios::HospitalOptions{});
  ASSERT_TRUE(ontology.ok());
  auto program = (*ontology)->Compile();
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  options.semi_naive = GetParam();
  auto qa = qa::ChaseQa::Create(*program, options);
  ASSERT_TRUE(qa.ok()) << qa.status();
  auto q = Parser::ParseQuery("Q(U, D, P) :- PatientUnit(U, D, P).",
                              program->vocab().get());
  ASSERT_TRUE(q.ok());
  auto answers = qa->Answers(*q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 6u);  // the six concrete patient-unit facts
}

std::string HospitalSweepName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "SemiNaiveRestricted" : "NaiveRestricted";
}

INSTANTIATE_TEST_SUITE_P(Configs, HospitalConfigSweep, ::testing::Bool(),
                         HospitalSweepName);

}  // namespace
}  // namespace mdqa::datalog
