// Golden tests for the experiments of EXPERIMENTS.md: each experiment's
// output must equal tests/experiments/<ID>.txt byte for byte, and an
// experiment that finds a wrong answer fails its case.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tools/experiments.h"

namespace mdqa::experiments {

// Names a test parameter by its id, so test names stay stable.
void PrintTo(const Experiment& experiment, std::ostream* os) {
  *os << experiment.id;
}

namespace {

std::string ReadGolden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// "line N: expected `...`, got `...`" for the first line that differs.
std::string FirstDifference(const std::string& expected,
                            const std::string& actual) {
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) return "the outputs differ in line endings";
    if (!more_want || !more_got || want_line != got_line) {
      return "line " + std::to_string(line) + ": expected `" +
             (more_want ? want_line : "<end of file>") + "`, got `" +
             (more_got ? got_line : "<end of output>") + "`";
    }
  }
}

class ExperimentGolden : public ::testing::TestWithParam<Experiment> {};

TEST_P(ExperimentGolden, MatchesGoldenFile) {
  const Experiment& experiment = GetParam();
  std::ostringstream out;
  Status status = experiments::Run(experiment, out);
  ASSERT_TRUE(status.ok()) << status;
  const std::string path = std::string(MDQA_EXPERIMENTS_GOLDEN_DIR) + "/" +
                           experiment.id + ".txt";
  const std::string golden = ReadGolden(path);
  EXPECT_TRUE(out.str() == golden)
      << path << " is stale or the output changed; "
      << FirstDifference(golden, out.str())
      << "\nIf the change is intended, regenerate it with\n  "
      << "build/tools/mdqa_experiments " << experiment.id
      << " > tests/experiments/" << experiment.id << ".txt";
}

INSTANTIATE_TEST_SUITE_P(
    Experiments, ExperimentGolden, ::testing::ValuesIn(All()),
    [](const ::testing::TestParamInfo<Experiment>& info) {
      return std::string(info.param.id);
    });

}  // namespace
}  // namespace mdqa::experiments
