// C2 — Section IV claim: (boolean) conjunctive query answering over
// weakly-sticky MD ontologies is PTIME in data complexity. The paper
// reports no measurements (extended abstract); the reproduction grows
// synthetic hospital instances and shows both engines scaling
// polynomially (near-linearly here) in the number of extensional facts.

#include <chrono>

#include "bench_common.h"
#include "datalog/parser.h"
#include "qa/chase_qa.h"
#include "qa/deterministic_ws.h"
#include "scenarios/synthetic.h"

namespace mdqa {
namespace {

using bench::Check;

datalog::Program MakeProgram(int patients, int days) {
  scenarios::SyntheticSpec spec;
  spec.patients = patients;
  spec.days = days;
  auto ontology = Check(scenarios::BuildSyntheticOntology(spec), "onto");
  return Check(ontology->Compile(), "compile");
}

void Reproduce() {
  std::cout << "\nQA wall-time vs. extensional size (the paper's PTIME "
               "claim — expect polynomial growth):\n"
            << "  facts    chase-QA(ms)   det-WS(ms)   |answers|\n";
  for (int patients : {20, 40, 80, 160, 320}) {
    datalog::Program program = MakeProgram(patients, 10);
    size_t facts = program.facts().size();

    auto t0 = std::chrono::steady_clock::now();
    auto chase = Check(qa::ChaseQa::Create(program), "chase");
    auto q = Check(
        datalog::Parser::ParseQuery("Q(U, P) :- SPatientUnit(U, D, P).",
                                    program.vocab().get()),
        "parse");
    auto chase_answers = Check(chase.Answers(q), "answers");
    auto t1 = std::chrono::steady_clock::now();

    qa::DeterministicWsQa ws(program);
    auto ws_answers = Check(ws.Answers(q), "ws answers");
    auto t2 = std::chrono::steady_clock::now();

    auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    std::printf("  %6zu   %11.2f   %10.2f   %8zu\n", facts, ms(t0, t1),
                ms(t1, t2), chase_answers.size());
    if (chase_answers.size() != ws_answers.size()) {
      std::cout << "  !! engine disagreement\n";
    }
  }
}

void BM_ChaseQa_Scaling(benchmark::State& state) {
  datalog::Program program =
      MakeProgram(static_cast<int>(state.range(0)), 10);
  auto q = Check(
      datalog::Parser::ParseQuery("Q(U, P) :- SPatientUnit(U, D, P).",
                                  program.vocab().get()),
      "parse");
  for (auto _ : state) {
    auto chase = qa::ChaseQa::Create(program);
    if (!chase.ok()) state.SkipWithError(chase.status().ToString().c_str());
    auto a = chase->Answers(q);
    benchmark::DoNotOptimize(a);
  }
  state.SetComplexityN(static_cast<int64_t>(program.facts().size()));
}
BENCHMARK(BM_ChaseQa_Scaling)->Arg(20)->Arg(40)->Arg(80)->Arg(160)
    ->Complexity();

void BM_DeterministicWs_Scaling(benchmark::State& state) {
  datalog::Program program =
      MakeProgram(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    qa::DeterministicWsQa ws(program);
    auto q = Check(
        datalog::Parser::ParseQuery("Q(U, P) :- SPatientUnit(U, D, P).",
                                    program.vocab().get()),
        "parse");
    auto a = ws.Answers(q);
    if (!a.ok()) state.SkipWithError(a.status().ToString().c_str());
    benchmark::DoNotOptimize(a);
  }
  state.SetComplexityN(static_cast<int64_t>(program.facts().size()));
}
BENCHMARK(BM_DeterministicWs_Scaling)->Arg(20)->Arg(40)->Arg(80)->Arg(160)
    ->Complexity();

void BM_BooleanQuery_Selective(benchmark::State& state) {
  // A highly selective boolean query: goal-directedness should make the
  // deterministic WS engine cheap relative to full materialization.
  datalog::Program program =
      MakeProgram(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    qa::DeterministicWsQa ws(program);
    auto q = Check(datalog::Parser::ParseQuery(
                       "Q() :- SPatientUnit(\"su0\", \"sd0\", \"sp0\").",
                       program.vocab().get()),
                   "parse");
    auto a = ws.AnswerBoolean(q);
    if (!a.ok()) state.SkipWithError(a.status().ToString().c_str());
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_BooleanQuery_Selective)->Arg(40)->Arg(160);

}  // namespace
}  // namespace mdqa

int main(int argc, char** argv) {
  return mdqa::bench::RunBench(
      argc, argv, "C2",
      "Section IV: PTIME data-complexity scaling of BCQ answering",
      [] { mdqa::Reproduce(); });
}
