// Scenario-matrix benchmark: runs the generated scenario corpus
// (src/testgen/scenario.h) through every engine configuration and lands
// the numbers in BENCH_scenarios.json — per-family chase size, assess
// latency per engine, whether the cost planner picked the fastest sound
// engine, the incremental-reassess speedup after one update batch, and a
// cross-configuration byte-identity verdict. The reproduction aborts
// (exit 1) if any engine's verdicts disagree with the generator's planted
// ground truth, so the perf numbers can never come from a wrong answer.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/thread_pool.h"
#include "bench_common.h"
#include "datalog/analysis.h"
#include "qa/engines.h"
#include "quality/assessor.h"
#include "testgen/scenario.h"

namespace mdqa {
namespace {

using bench::Check;
using testgen::GeneratedScenario;
using testgen::ScenarioBenchRecord;
using testgen::ScenarioFamily;
using testgen::ScenarioGenerator;
using testgen::ScenarioSpec;
using testgen::SpecFor;

constexpr uint32_t kSeed = 1;

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return MedianMs(std::move(samples));
}

void RequireExactVerdicts(const quality::AssessmentReport& report,
                          const GeneratedScenario& scenario,
                          const char* what) {
  auto score =
      testgen::ScoreVerdicts(report, scenario.relation, scenario.truth);
  Check(score.status(), what);
  if (score->precision != 1.0 || score->recall != 1.0) {
    std::cerr << what << ": verdicts disagree with ground truth (P="
              << score->precision << " R=" << score->recall << ")\n";
    for (const std::string& m : score->mismatches) {
      std::cerr << "  " << m << "\n";
    }
    std::exit(1);
  }
}

ScenarioBenchRecord MeasureFamily(ScenarioFamily family) {
  const ScenarioSpec spec = SpecFor(family, kSeed);
  GeneratedScenario scenario =
      Check(ScenarioGenerator::Generate(spec), "generate");

  ScenarioBenchRecord record;
  record.family = testgen::ScenarioFamilyToString(family);
  record.seed = spec.seed;
  for (const testgen::TupleVerdict& v : scenario.truth) {
    if (!v.clean) ++record.dirty_expected;
  }
  record.edb_rows = 0;
  for (const std::string& name :
       scenario.context.database().RelationNames()) {
    record.edb_rows += Check(scenario.context.database().GetRelation(name),
                             "relation")
                           ->size();
  }

  auto prepared = Check(scenario.context.Prepare(), "prepare");
  record.chase_facts = prepared.statistics().total_facts;

  quality::Assessor assessor(&scenario.context);

  // Engine configurations: serial chase, chase with the relations fanned
  // out on a pool, and every other engine the planner declares sound for
  // the compiled program.
  auto program = Check(scenario.context.BuildProgram(), "program");
  datalog::ProgramAnalysis analysis(program);
  auto props = Check(scenario.context.ontology().Analyze(), "analyze");
  qa::EngineSelectOptions select_options;
  select_options.egds_separable = props.separable_egds;
  const qa::EngineSelection selection =
      qa::SelectEngine(program, analysis, select_options);

  quality::AssessmentReport serial;
  {
    double ms = TimeMs([&] {
      serial = Check(assessor.Assess(), "assess[chase]");
    });
    RequireExactVerdicts(serial, scenario, "chase");
    record.engines.push_back("chase");
    record.assess_ms.push_back(ms);
  }
  record.engine_recommended =
      qa::EngineToString(serial.engine_recommended);
  {
    ThreadPool pool(4);
    quality::AssessOptions options;
    options.pool = &pool;
    quality::AssessmentReport pooled;
    double ms = TimeMs([&] {
      pooled = Check(assessor.Assess(options), "assess[chase-pool4]");
    });
    record.reports_identical = pooled.ToString() == serial.ToString() &&
                               pooled.ToJson() == serial.ToJson();
    record.engines.push_back("chase-pool4");
    record.assess_ms.push_back(ms);
  }
  for (const qa::EngineCandidate& candidate : selection.candidates) {
    if (!candidate.sound || candidate.engine == qa::Engine::kChase) continue;
    quality::AssessmentReport report;
    double ms = TimeMs([&] {
      report = Check(assessor.Assess(candidate.engine), "assess[alt]");
    });
    RequireExactVerdicts(report, scenario,
                         qa::EngineToString(candidate.engine));
    record.engines.push_back(qa::EngineToString(candidate.engine));
    record.assess_ms.push_back(ms);
  }

  // Planner pick rate: did the recommendation match the empirically
  // fastest measured configuration's engine family? (chase-pool4 counts
  // as chase — the planner does not model the pool.)
  double best = record.assess_ms[0];
  std::string best_engine = "chase";
  for (size_t i = 1; i < record.engines.size(); ++i) {
    if (record.assess_ms[i] < best) {
      best = record.assess_ms[i];
      best_engine =
          record.engines[i] == "chase-pool4" ? "chase" : record.engines[i];
    }
  }
  record.planner_pick_fastest = best_engine == record.engine_recommended;

  // Incremental speedup: apply the first update batch, Reassess against
  // the previous report, and compare with a fresh full assessment of the
  // updated database (which must also render byte-identically).
  if (!scenario.updates.empty()) {
    auto next =
        Check(prepared.ApplyUpdate(scenario.updates.front().batch), "update");
    quality::AssessmentReport incremental;
    record.incremental_ms = TimeMs([&] {
      incremental = Check(assessor.Reassess(next, serial), "reassess");
    });
    GeneratedScenario fresh =
        Check(ScenarioGenerator::Generate(spec), "regenerate");
    Database patch;
    patch.PutRelation(
        *Check(next.database().GetRelation(scenario.relation), "patch"));
    Check(fresh.context.SetDatabase(std::move(patch)), "set database");
    quality::Assessor fresh_assessor(&fresh.context);
    quality::AssessmentReport full;
    record.full_reassess_ms = TimeMs([&] {
      full = Check(fresh_assessor.Assess(), "full assess");
    });
    record.reports_identical =
        record.reports_identical &&
        incremental.ToString() == full.ToString() &&
        incremental.ToJson() == full.ToJson();
  }
  return record;
}

void Reproduce() {
  std::vector<ScenarioBenchRecord> records;
  bool all_identical = true;
  for (ScenarioFamily family : testgen::kAllScenarioFamilies) {
    ScenarioBenchRecord record = MeasureFamily(family);
    std::cout << record.family << ": edb=" << record.edb_rows
              << " chase_facts=" << record.chase_facts
              << " dirty=" << record.dirty_expected << " engines=[";
    for (size_t i = 0; i < record.engines.size(); ++i) {
      if (i > 0) std::cout << ", ";
      char buf[64];
      snprintf(buf, sizeof(buf), "%s %.2fms", record.engines[i].c_str(),
               record.assess_ms[i]);
      std::cout << buf;
    }
    std::cout << "] incr=" << record.incremental_ms
              << "ms full=" << record.full_reassess_ms
              << "ms planner=" << record.engine_recommended
              << (record.planner_pick_fastest ? " (fastest)" : "")
              << (record.reports_identical ? "" : " REPORTS DIVERGE")
              << "\n";
    all_identical = all_identical && record.reports_identical;
    records.push_back(std::move(record));
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("experiment").String("scenario_matrix");
  bench::StampProvenance(&w);
  w.Key("seed").Number(static_cast<int64_t>(kSeed));
  w.Key("families");
  testgen::WriteScenarioBenchRecords(&w, records);
  w.EndObject();
  bench::WriteArtifact("BENCH_scenarios.json", w.TakeString() + "\n");
  if (!all_identical) {
    std::cerr << "FATAL: reports diverged across configurations\n";
    std::exit(1);
  }
}

void BM_GenerateScenario(benchmark::State& state) {
  const ScenarioSpec spec = SpecFor(
      testgen::kAllScenarioFamilies[static_cast<size_t>(state.range(0))],
      kSeed);
  for (auto _ : state) {
    auto scenario = ScenarioGenerator::Generate(spec);
    if (!scenario.ok()) state.SkipWithError("generate failed");
    benchmark::DoNotOptimize(scenario);
  }
}
BENCHMARK(BM_GenerateScenario)->DenseRange(0, 4);

void BM_AssessScenario(benchmark::State& state) {
  const ScenarioSpec spec = SpecFor(
      testgen::kAllScenarioFamilies[static_cast<size_t>(state.range(0))],
      kSeed);
  auto scenario = ScenarioGenerator::Generate(spec);
  if (!scenario.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  quality::Assessor assessor(&scenario->context);
  for (auto _ : state) {
    auto report = assessor.Assess();
    if (!report.ok()) state.SkipWithError("assess failed");
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_AssessScenario)->DenseRange(0, 4);

}  // namespace
}  // namespace mdqa

int main(int argc, char** argv) {
  return mdqa::bench::RunBench(
      argc, argv, "scenario-matrix",
      "generated scenario corpus: per-family, per-engine assessment with "
      "ground-truth gating",
      mdqa::Reproduce);
}
