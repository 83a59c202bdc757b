// session-updates: the session write path. Set-up generates one
// deep-homogeneous scenario at 6000 rows, prepares it and assesses it.
// Each op applies a 5-row insert-only DeltaBatch (PreparedContext::
// ApplyUpdate), re-assesses against the previous report
// (Assessor::Reassess) and renders the report; three clean reads against
// the new session follow every write.
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "quality/assessor.h"
#include "reads.h"
#include "replica.h"
#include "testgen/scenario.h"
#include "workloads.h"

namespace mdqa::perfbench {
namespace {

using quality::AssessmentReport;
using quality::PreparedContext;
using testgen::GeneratedScenario;

// Writes per slice. Every slice restarts from the freshly set-up
// session, so the database grows by the same number of rows each time.
// Short chains keep write times in a narrow band, since a write costs
// more the more rows its chain has added (at 120 writes a chain, p50 sat
// 12-28% higher), and a 20-s run samples set-up at about 20 points.
constexpr int kWritesPerSlice = 40;
constexpr int kSmokeWritesPerSlice = 3;
constexpr int kRowsPerBatch = 5;

// The assess workloads' scaled sizes, but with the generator's canonical
// single misplaced ward and dropped schedule fact: at 20 of each nearly
// every row of this family is dirty, and how few stay clean swings with
// the seed. Here about 40% are clean on every seed, so reads find rows.
testgen::ScenarioSpec SessionSpec(uint32_t seed, bool smoke) {
  testgen::ScenarioSpec spec =
      testgen::SpecFor(testgen::ScenarioFamily::kDeepHomogeneous, seed);
  spec.entities = smoke ? 30 : 600;
  spec.rows = smoke ? 300 : 6000;
  spec.days = smoke ? 3 : 10;
  spec.corruptions = smoke ? 4 : 40;
  spec.misplacements = 1;
  spec.missing_facts = 1;
  // The benchmark makes its own insert stream: the generator's stream
  // keeps whole-database verdicts after every batch.
  spec.update_batches = 0;
  return spec;
}

struct State {
  GeneratedScenario scenario;
  std::optional<PreparedContext> session;
  AssessmentReport report;
  std::string report_json;
  std::vector<std::string> entities;  // known entities: read keys
  std::vector<std::string> times;     // the relation's Time values
};

Result<std::unique_ptr<State>> SetUp(const RunOptions& options,
                                     Tracer* tracer, Gates* gates) {
  MDQA_ASSIGN_OR_RETURN(GeneratedScenario scenario,
                        testgen::ScenarioGenerator::Generate(
                            SessionSpec(options.seed, options.smoke)));
  auto state = std::make_unique<State>(State{std::move(scenario), {}, {}, {},
                                             {}, {}});
  const quality::QualityContext& context = state->scenario.context;
  Result<PreparedContext> session = Status::Internal("unreached");
  {
    Tracer::Scope span(tracer, "quality.prepare");
    session = context.Prepare();
  }
  MDQA_RETURN_IF_ERROR(session.status());
  state->session.emplace(std::move(*session));
  MDQA_ASSIGN_OR_RETURN(
      state->report, tracer ? TracedAssess(context, nullptr, tracer)
                            : quality::Assessor(&context).Assess());
  state->report_json = state->report.ToJson();

  const std::string& relation = state->scenario.relation;
  Result<testgen::VerdictScore> score =
      testgen::ScoreVerdicts(state->report, relation, state->scenario.truth);
  gates->Check(score.ok() && score->precision == 1.0 && score->recall == 1.0,
               "set-up report misses the planted truth");
  state->entities = KnownEntities(state->scenario);
  std::set<std::string> times;
  for (const testgen::TupleVerdict& v : state->scenario.truth) {
    times.insert(v.fields[0]);
  }
  state->times.assign(times.begin(), times.end());
  if (state->entities.empty() || state->times.empty()) {
    return Status::FailedPrecondition("scenario has no entity or time");
  }
  return state;
}

// One insert-only batch: rows over the scenario's own times and known
// entities, about one in five naming a ghost entity no dimension knows.
// Values continue past every generated one, so no insert is a duplicate.
quality::DeltaBatch NextBatch(const State& state, std::mt19937* rng,
                              int* counter) {
  quality::RelationDelta delta;
  delta.relation = state.scenario.relation;
  for (int i = 0; i < kRowsPerBatch; ++i) {
    const int n = (*counter)++;
    const std::string entity =
        (*rng)() % 5 == 0
            ? "pghost" + std::to_string(n)
            : state.entities[(*rng)() % state.entities.size()];
    const std::string value =
        std::to_string(1000 + n / 10) + "." + std::to_string(n % 10);
    delta.insert_rows.push_back(
        {Value::FromText(state.times[(*rng)() % state.times.size()]),
         Value::FromText(entity), Value::FromText(value)});
  }
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));
  return batch;
}

// The final report of a session chain must match a from-scratch Assess of
// its final database on a freshly generated copy of the scenario.
bool MatchesFromScratch(const RunOptions& options, const State& state) {
  Result<GeneratedScenario> fresh = testgen::ScenarioGenerator::Generate(
      SessionSpec(options.seed, options.smoke));
  if (!fresh.ok()) return false;
  Result<const Relation*> rel =
      state.session->database().GetRelation(state.scenario.relation);
  if (!rel.ok()) return false;
  Database patch;
  patch.PutRelation(**rel);
  if (!fresh->context.SetDatabase(std::move(patch)).ok()) return false;
  Result<AssessmentReport> oracle = quality::Assessor(&fresh->context).Assess();
  return oracle.ok() && oracle->ToJson() == state.report_json;
}

}  // namespace

WorkloadResult RunSession(const RunOptions& options) {
  WorkloadResult result;
  Tracer* tracer = options.trace ? &result.trace : nullptr;
  Gates gates;
  EndToEnd e2e;
  LayerTally tally;
  tally.op_kinds = {"write", "read"};

  std::mt19937 rng(options.seed * 2246822519u + 29u);
  const int writes_per_slice =
      options.smoke ? kSmokeWritesPerSlice : kWritesPerSlice;
  std::unique_ptr<State> state;
  double measured_s = 0;
  uint64_t op_index = 0;
  while (e2e.setup_s.size() == 0 || measured_s < options.seconds) {
    state.reset();  // free the last slice's session chain first
    const Clock::time_point setup_start = Clock::now();
    uint64_t setup_op = 0;
    if (tracer) setup_op = tracer->BeginOp("setup");
    Result<std::unique_ptr<State>> set_up = SetUp(options, tracer, &gates);
    if (tracer) tracer->EndOp();
    e2e.setup_s.Add(Ms(setup_start, Clock::now()) / 1e3);
    if (!set_up.ok()) {
      gates.Attempt();
      gates.Fail("set-up failed: " + set_up.status().ToString());
      break;
    }
    state = std::move(*set_up);
    const quality::QualityContext& context = state->scenario.context;
    if (tracer) {
      tracer->BeginOp("split", setup_op);
      Result<ChaseCounts> counts = SplitPrepare(context, nullptr, tracer);
      tracer->EndOp();
      if (gates.Check(counts.ok(), "split pass failed")) {
        tally.chases.push_back(*counts);
      }
    }

    int counter = 0;
    const Clock::time_point slice_start = Clock::now();
    for (int i = 0; i < writes_per_slice; ++i, ++op_index) {
      const quality::DeltaBatch batch = NextBatch(*state, &rng, &counter);
      const bool traced = tracer != nullptr && op_index % 2 == 0;
      gates.Attempt();
      Result<PreparedContext> next = Status::Internal("unreached");
      Result<AssessmentReport> report = Status::Internal("unreached");
      std::string json;
      if (traced) {
        tracer->BeginOp("write");
        {
          Tracer::Scope span(tracer, "quality.apply_update");
          next = state->session->ApplyUpdate(batch);
        }
        if (next.ok()) {
          report = TracedReassess(context, *next, state->report, tracer);
        }
        if (report.ok()) {
          Tracer::Scope span(tracer, "quality.render");
          json = report->ToJson();
        }
        tracer->EndOp();
      } else {
        const Clock::time_point start = Clock::now();
        next = state->session->ApplyUpdate(batch);
        if (next.ok()) {
          report = quality::Assessor(&context).Reassess(*next, state->report);
        }
        if (report.ok()) json = report->ToJson();
        const double ms = Ms(start, Clock::now());
        (tracer ? tally.untraced_op_ms : e2e.op_ms).Add(ms);
      }
      if (!gates.Check(next.ok() && report.ok(),
                       "write failed: " + (next.ok() ? report.status()
                                                     : next.status())
                                              .ToString())) {
        break;  // the chain cannot continue past a failed write
      }
      // Every batch only inserts, so Chase::Extend must never fall back to
      // a full re-chase: one that did would time a different write path.
      const bool fell_back = next->chase_stats().extend_fallback;
      gates.Check(!fell_back, "insert fell back to a full re-chase");
      if (fell_back) ++tally.extend_fallbacks;
      if (traced) {
        // The replica must render what Reassess renders.
        Result<AssessmentReport> real =
            quality::Assessor(&context).Reassess(*next, state->report);
        gates.Check(real.ok() && real->ToJson() == json,
                    "traced Reassess differs from Reassess");
        tally.report_bytes.Add(static_cast<double>(json.size()));
      }
      state->session.emplace(std::move(*next));
      state->report = std::move(*report);
      state->report_json = std::move(json);

      const Relation* quality =
          state->report.QualityVersionOf(state->scenario.relation);
      if (!gates.Check(quality != nullptr, "report lost the relation")) break;
      const ExpectedReads expected(*quality);
      for (ReadKind kind : kReadMix) {
        const std::string& entity =
            state->entities[rng() % state->entities.size()];
        gates.Attempt();
        if (tracer) tracer->BeginOp("read");
        ReadResult read = RunRead(
            *state->session,
            ReadQuery(kind, state->scenario.relation, entity), tracer);
        if (tracer) tracer->EndOp();
        if (!tracer) e2e.read_us.Add(read.us);
        if (!gates.Check(read.answers.ok(),
                         "read failed: " + read.answers.status().ToString())) {
          continue;
        }
        const std::string wrong = expected.Check(
            kind, entity, *read.answers, *state->session->program().vocab());
        gates.Check(wrong.empty(), wrong);
        if (tracer) {
          CountReadWork(*state->session, read.query, &tally);
        }
      }
    }
    measured_s += Ms(slice_start, Clock::now()) / 1e3;
    if (e2e.peak_rss_mb == 0) e2e.peak_rss_mb = PeakRssMb();
    if (gates.failed() > 0) break;  // the run is already wrong: fail fast
  }
  if (state != nullptr && !MatchesFromScratch(options, *state)) {
    gates.Fail("final report differs from a from-scratch Assess");
  }
  e2e.ops_completed = e2e.op_ms.size();
  e2e.busy_s = e2e.op_ms.Sum() / 1e3 + e2e.read_us.Sum() / 1e6;

  if (tracer) {
    result.metrics = LayerMetrics(result.trace, tally, &gates);
  } else {
    EndToEndMetrics(e2e, "write", &result);
  }
  FinishGates(gates, &result);
  return result;
}

}  // namespace mdqa::perfbench
