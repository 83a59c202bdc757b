// assess-batch / assess-pooled: the one-shot Fig. 2 assessment over the
// five testgen scenario families at 6000 base rows, in a fixed rotation.
// Each op is Assessor::Assess then AssessmentReport::ToJson; three clean
// reads against the same family's prepared session follow it.
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "quality/assessor.h"
#include "reads.h"
#include "replica.h"
#include "testgen/scenario.h"
#include "workloads.h"

namespace mdqa::perfbench {
namespace {

using testgen::GeneratedScenario;
using testgen::ScenarioFamily;

// Assessments per slice: a multiple of the five families, so every slice
// runs each family equally often, and of two, so a traced slice traces
// each family as often as it leaves it untraced. Short enough that a
// 20-s run samples set-up at 7-11 points.
constexpr int kOpsPerSlice = 20;
constexpr int kSmokeOpsPerSlice = 5;
// Assessments a run makes at least, however slow the host: a p90 needs
// 100 samples so that ten sit beyond it. assess-pooled fits 100-160 in
// 20 s, so a slow stretch of host time could otherwise leave it short.
constexpr uint64_t kMinOps = 100;

// bench_columnar's scaled spec: past the unit-test sizes, where storage
// and join costs show. The assess loop never applies updates.
testgen::ScenarioSpec ScaledSpec(ScenarioFamily family, uint32_t seed,
                                 bool smoke) {
  testgen::ScenarioSpec spec = testgen::SpecFor(family, seed);
  spec.entities = smoke ? 30 : 600;
  spec.rows = smoke ? 300 : 6000;
  spec.days = smoke ? 3 : 10;
  spec.corruptions = smoke ? 4 : 40;
  spec.misplacements = smoke ? 2 : 20;
  spec.missing_facts = smoke ? 2 : 20;
  spec.update_batches = 0;
  return spec;
}

struct Input {
  GeneratedScenario scenario;
  std::optional<quality::PreparedContext> session;  // serves the reads
  std::vector<std::string> entities;                // read keys
};

Result<std::vector<std::unique_ptr<Input>>> SetUp(const RunOptions& options) {
  std::vector<std::unique_ptr<Input>> inputs;
  for (ScenarioFamily family : testgen::kAllScenarioFamilies) {
    MDQA_ASSIGN_OR_RETURN(
        GeneratedScenario scenario,
        testgen::ScenarioGenerator::Generate(
            ScaledSpec(family, options.seed, options.smoke)));
    auto input = std::make_unique<Input>(Input{std::move(scenario), {}, {}});
    MDQA_ASSIGN_OR_RETURN(quality::PreparedContext session,
                          input->scenario.context.Prepare());
    input->session.emplace(std::move(session));
    input->entities = KnownEntities(input->scenario);
    if (input->entities.empty()) {
      return Status::FailedPrecondition("scenario has no known entity");
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

// What the first report of each family established: later reports must
// match it byte for byte, and reads must agree with its quality version.
struct Reference {
  std::string json;
  std::unique_ptr<ExpectedReads> reads;
};

// Gates one assessment's rendered report; the first one per family must
// also score precision = recall = 1.0 against the planted truth.
void CheckReport(const Input& input,
                 const Result<quality::AssessmentReport>& report,
                 const std::string& json, Reference* ref, Gates* gates) {
  if (!gates->Check(report.ok(),
                    "assess failed: " + report.status().ToString())) {
    return;
  }
  if (!ref->json.empty()) {
    gates->Check(json == ref->json, "report differs from the first report");
    return;
  }
  const std::string& relation = input.scenario.relation;
  Result<testgen::VerdictScore> score =
      testgen::ScoreVerdicts(*report, relation, input.scenario.truth);
  const Relation* quality = report->QualityVersionOf(relation);
  if (!gates->Check(score.ok() && score->precision == 1.0 &&
                        score->recall == 1.0 && quality != nullptr,
                    "first report misses the planted truth")) {
    return;
  }
  ref->json = json;
  ref->reads = std::make_unique<ExpectedReads>(*quality);
}

}  // namespace

WorkloadResult RunAssess(const RunOptions& options, bool pooled) {
  WorkloadResult result;
  Tracer* tracer = options.trace ? &result.trace : nullptr;
  Gates gates;
  EndToEnd e2e;
  LayerTally tally;
  tally.op_kinds = {"assess", "read"};

  // Two workers plus the calling thread stay under a 4-CPU host.
  std::unique_ptr<ThreadPool> pool =
      pooled ? std::make_unique<ThreadPool>(2) : nullptr;
  quality::AssessOptions assess_options;
  assess_options.pool = pool.get();

  std::mt19937 rng(options.seed * 2654435761u + 17u);
  const int ops_per_slice = options.smoke ? kSmokeOpsPerSlice : kOpsPerSlice;
  const uint64_t min_ops = options.smoke ? 0 : kMinOps;
  std::vector<Reference> refs(std::size(testgen::kAllScenarioFamilies));
  std::vector<std::unique_ptr<Input>> inputs;
  double measured_s = 0;
  uint64_t op_index = 0;
  while (e2e.setup_s.size() == 0 || measured_s < options.seconds ||
         op_index < min_ops) {
    inputs.clear();  // free the last slice's inputs before building anew
    const Clock::time_point setup_start = Clock::now();
    if (tracer) tracer->BeginOp("setup");
    Result<std::vector<std::unique_ptr<Input>>> set_up = SetUp(options);
    if (tracer) tracer->EndOp();
    e2e.setup_s.Add(Ms(setup_start, Clock::now()) / 1e3);
    if (!set_up.ok()) {
      gates.Attempt();
      gates.Fail("set-up failed: " + set_up.status().ToString());
      break;
    }
    inputs = std::move(*set_up);

    const Clock::time_point slice_start = Clock::now();
    for (int i = 0; i < ops_per_slice; ++i, ++op_index) {
      const size_t k = op_index % inputs.size();
      Input& input = *inputs[k];
      Reference& ref = refs[k];
      const quality::QualityContext& context = input.scenario.context;

      // In a traced run every other op is the traced replica and the rest
      // its untraced twin, so trace.overhead compares interleaved ops.
      const bool traced = tracer != nullptr && op_index % 2 == 0;
      gates.Attempt();
      Result<quality::AssessmentReport> report = Status::Internal("unreached");
      std::string json;
      uint64_t op_id = 0;
      if (traced) {
        op_id = tracer->BeginOp("assess");
        report = TracedAssess(context, pool.get(), tracer);
        if (report.ok()) {
          Tracer::Scope span(tracer, "quality.render");
          json = report->ToJson();
        }
        tracer->EndOp();
      } else {
        const Clock::time_point start = Clock::now();
        report = quality::Assessor(&context).Assess(assess_options);
        if (report.ok()) json = report->ToJson();
        const double ms = Ms(start, Clock::now());
        (tracer ? tally.untraced_op_ms : e2e.op_ms).Add(ms);
      }
      CheckReport(input, report, json, &ref, &gates);
      if (traced) {
        tally.report_bytes.Add(static_cast<double>(json.size()));
        tracer->BeginOp("split", op_id);
        Result<ChaseCounts> counts = SplitPrepare(context, pool.get(), tracer);
        tracer->EndOp();
        if (gates.Check(counts.ok(), "split pass failed")) {
          tally.chases.push_back(*counts);
        }
      }
      if (ref.reads == nullptr) continue;  // no reference to read against

      for (ReadKind kind : kReadMix) {
        const std::string& entity =
            input.entities[rng() % input.entities.size()];
        const std::string text =
            ReadQuery(kind, input.scenario.relation, entity);
        gates.Attempt();
        if (tracer) tracer->BeginOp("read");
        ReadResult read = RunRead(*input.session, text, tracer);
        if (tracer) tracer->EndOp();
        if (!tracer) e2e.read_us.Add(read.us);
        if (!gates.Check(read.answers.ok(),
                         "read failed: " + read.answers.status().ToString())) {
          continue;
        }
        const std::string wrong = ref.reads->Check(
            kind, entity, *read.answers, *input.session->program().vocab());
        gates.Check(wrong.empty(), wrong);
        if (tracer) {
          CountReadWork(*input.session, read.query, &tally);
        }
      }
    }
    measured_s += Ms(slice_start, Clock::now()) / 1e3;
    if (e2e.peak_rss_mb == 0) e2e.peak_rss_mb = PeakRssMb();
    if (gates.failed() > 0) break;  // the run is already wrong: fail fast
  }
  e2e.ops_completed = e2e.op_ms.size();
  e2e.busy_s = e2e.op_ms.Sum() / 1e3 + e2e.read_us.Sum() / 1e6;

  if (tracer) {
    result.metrics = LayerMetrics(result.trace, tally, &gates);
  } else {
    EndToEndMetrics(e2e, "assess", &result);
  }
  FinishGates(gates, &result);
  return result;
}

}  // namespace mdqa::perfbench
