// mdqa_experiments: prints the deterministic output of the experiments
// in EXPERIMENTS.md (tables, answers, classifications and work counts;
// timing is perfbench's job).
//
// Run:  mdqa_experiments [ID ...]     e.g. mdqa_experiments E1 C2
//
// With no ids, prints every experiment in EXPERIMENTS.md order. Each
// experiment's output is pinned by tests/experiments/<ID>.txt; after an
// intended change, regenerate one with
//   build/tools/mdqa_experiments <ID> > tests/experiments/<ID>.txt
//
// Exit codes: 0 success, 1 an experiment failed (a wrong answer or an
// engine error), 2 an unknown id.

#include <iostream>
#include <vector>

#include "tools/experiments.h"

int main(int argc, char** argv) {
  using mdqa::experiments::Experiment;
  std::vector<const Experiment*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Experiment* e = mdqa::experiments::Find(argv[i]);
    if (e == nullptr) {
      std::cerr << "mdqa_experiments: unknown experiment id '" << argv[i]
                << "'; known ids:";
      for (const Experiment& known : mdqa::experiments::All()) {
        std::cerr << " " << known.id;
      }
      std::cerr << "\n";
      return 2;
    }
    chosen.push_back(e);
  }
  if (chosen.empty()) {
    for (const Experiment& e : mdqa::experiments::All()) chosen.push_back(&e);
  }
  int exit_code = 0;
  for (const Experiment* e : chosen) {
    mdqa::Status status = mdqa::experiments::Run(*e, std::cout);
    if (!status.ok()) {
      std::cout.flush();
      std::cerr << "experiment " << e->id << " failed: " << status << "\n";
      exit_code = 1;
    }
  }
  return exit_code;
}
