#ifndef MDQA_TOOLS_EXPERIMENTS_H_
#define MDQA_TOOLS_EXPERIMENTS_H_

// The experiments of EXPERIMENTS.md, one entry per id. Each prints the
// deterministic part of its experiment (tables, answers,
// classifications and work counts, never times), so its output can be
// pinned byte for byte: tests/experiments/<ID>.txt is the golden of
// `mdqa_experiments <ID>`. An experiment that finds a wrong answer
// returns an error status.

#include <ostream>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace mdqa::experiments {

struct Experiment {
  const char* id;
  const char* title;
  Status (*run)(std::ostream& out);
};

/// Every experiment, in EXPERIMENTS.md order.
const std::vector<Experiment>& All();

/// The experiment named `id`, or nullptr.
const Experiment* Find(std::string_view id);

/// Prints `experiment`'s banner, then runs it into `out`.
Status Run(const Experiment& experiment, std::ostream& out);

}  // namespace mdqa::experiments

#endif  // MDQA_TOOLS_EXPERIMENTS_H_
