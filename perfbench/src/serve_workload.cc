// serve-mixed: AssessmentServer on loopback with 2 workers and quotas high
// enough that nothing is shed, driven by one closed-loop client sending
// testgen::GenerateServeWorkload traffic on the hospital scenario: about
// 60% /query, 10% /report, 20% inserts and 10% deletes, one request per
// connection, with the whole process pinned to one CPU (PinToOneCpu).
// Every slice starts a fresh server (the set-up sample), so each slice's
// database grows along the same path.
#include <sched.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "base/net.h"
#include "quality/assessor.h"
#include "replica.h"
#include "scenarios/hospital.h"
#include "serve/http.h"
#include "serve/server.h"
#include "testgen/generators.h"
#include "workloads.h"

namespace mdqa::perfbench {
namespace {

using serve::AssessmentServer;
using testgen::ServeOp;

// Requests per slice: enough for the update percentiles, few enough that
// the hospital relation stays small within a slice.
constexpr size_t kOpsPerSlice = 1000;
constexpr size_t kSmokeOpsPerSlice = 10;

serve::ServerOptions Options() {
  serve::ServerOptions options;
  options.worker_threads = 2;
  options.default_quota.requests_per_sec = 1e9;
  options.default_quota.burst = 1e9;
  return options;
}

// The value of the first `"key":` number in `body` (searching from the
// end when `last`), or -1.
long long JsonNumberAfter(std::string_view body, std::string_view key,
                          bool last) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const size_t at = last ? body.rfind(needle) : body.find(needle);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(std::string(body.substr(at + needle.size(), 24)).c_str(),
                      nullptr, 10);
}

// Every response is 200 or 202, and a read saw exactly one generation.
std::string CheckResponse(const ServeOp& op,
                          const Result<serve::HttpResponse>& resp) {
  if (!resp.ok()) return "request failed: " + resp.status().ToString();
  if (resp->status != 200 && resp->status != 202) {
    return "status " + std::to_string(resp->status) + ": " + resp->body;
  }
  if (op.kind == ServeOp::Kind::kQuery || op.kind == ServeOp::Kind::kReport) {
    const long long generation =
        JsonNumberAfter(resp->body, "generation", false);
    if (generation <= 0 ||
        generation != JsonNumberAfter(resp->body, "generation_check", true)) {
      return "torn read: generation_check differs from generation";
    }
    if (resp->body.find("\"degraded\":false") == std::string::npos) {
      return "degraded read";
    }
  }
  return "";
}

// The workload's one client: sends `workload` one request per connection,
// timing each from connect to response. In a traced run every other
// request is traced and the updates among the rest are the untraced twin
// for trace.overhead.
//
// One client, not two. With two, a query either runs at once or queues
// behind the writer's hold on the vocabulary lock, and the share that
// queues swings from run to run: read p50 sits on the boundary between
// the two, and its spread over ten runs was 27% of the median. Alone, the
// client never overlaps the writer, so every request takes the same path.
void RunClient(uint16_t port, const testgen::ServeWorkload& workload,
               Tracer* trace, EndToEnd* e2e, LayerTally* tally, Gates* gates) {
  for (size_t i = 0; i < workload.ops.size(); ++i) {
    const ServeOp& op = workload.ops[i];
    const bool query = op.kind == ServeOp::Kind::kQuery;
    const bool report = op.kind == ServeOp::Kind::kReport;
    Tracer* tracer = trace != nullptr && i % 2 == 0 ? trace : nullptr;
    gates->Attempt();
    if (tracer) tracer->BeginOp(query ? "query" : report ? "report" : "update");
    const Clock::time_point start = Clock::now();
    Result<net::Socket> sock = Status::Internal("unreached");
    {
      Tracer::Scope span(tracer, "serve.connect");
      sock = net::ConnectLoopback(port, std::chrono::milliseconds(2000));
    }
    Result<serve::HttpResponse> resp = sock.status();
    if (sock.ok()) {
      Tracer::Scope span(tracer, query    ? "serve.query"
                                 : report ? "serve.report"
                                          : "serve.update");
      resp = serve::HttpRoundTrip(*sock, report ? "GET" : "POST",
                                  query    ? "/query"
                                  : report ? "/report"
                                           : "/update",
                                  op.body, {{"X-Mdqa-Tenant", op.tenant}},
                                  serve::HttpLimits{});
    }
    const Clock::time_point end = Clock::now();
    if (tracer) tracer->EndOp();
    ++e2e->ops_completed;
    if (trace == nullptr) {
      if (query) e2e->read_us.Add(Us(start, end));
      if (!query && !report) e2e->op_ms.Add(Ms(start, end));
    } else if (tracer == nullptr && !query && !report) {
      tally->untraced_op_ms.Add(Ms(start, end));
    }
    const std::string wrong = CheckResponse(op, resp);
    gates->Check(wrong.empty(), wrong);
  }
}

// The drained server's report must match a from-scratch Assess of its
// final database.
bool MatchesFromScratch(const AssessmentServer& server) {
  std::shared_ptr<const quality::PreparedContext> session =
      server.CurrentSession();
  Result<quality::QualityContext> fresh =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  if (session == nullptr || !fresh.ok()) return false;
  Result<const Relation*> rel = session->database().GetRelation("Measurements");
  if (!rel.ok()) return false;
  Database patch;
  patch.PutRelation(**rel);
  if (!fresh->SetDatabase(std::move(patch)).ok()) return false;
  Result<quality::AssessmentReport> oracle =
      quality::Assessor(&*fresh).Assess();
  return oracle.ok() && oracle->ToJson() == server.CurrentReportJson();
}

// Pins this process, and so every thread it starts later (the server's
// among them), to the CPU it runs on. With one client the request path is
// sequential anyway; on one CPU each hand-off between client, acceptor,
// worker and writer is a local context switch instead of a wake-up of
// another idle virtual CPU, whose cost is the hypervisor's and swung
// serve throughput 790-1480 req/s over ten runs on a busy host.
bool PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

WorkloadResult RunServe(const RunOptions& options) {
  WorkloadResult result;
  Tracer* tracer = options.trace ? &result.trace : nullptr;
  Gates gates;
  gates.Check(PinToOneCpu(), "could not pin the process to one CPU");
  EndToEnd e2e;
  LayerTally tally;
  tally.op_kinds = {"update", "query", "report"};
  const size_t ops_per_slice =
      options.smoke ? kSmokeOpsPerSlice : kOpsPerSlice;

  double measured_s = 0;
  uint32_t slice = 0;
  while (e2e.setup_s.size() == 0 || measured_s < options.seconds) {
    if (tracer) {
      // What the server's start-up does, as public calls: the initial
      // snapshot is a Prepare plus a full Assess of the hospital context.
      const uint64_t setup_op = tracer->BeginOp("setup");
      Result<quality::QualityContext> context =
          scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
      Result<quality::AssessmentReport> report =
          context.ok() ? TracedAssess(*context, nullptr, tracer)
                       : Result<quality::AssessmentReport>(context.status());
      if (report.ok()) {
        Tracer::Scope span(tracer, "quality.render");
        tally.report_bytes.Add(static_cast<double>(report->ToJson().size()));
      }
      tracer->EndOp();
      tracer->BeginOp("split", setup_op);
      Result<ChaseCounts> counts =
          context.ok() ? SplitPrepare(*context, nullptr, tracer)
                       : Result<ChaseCounts>(context.status());
      tracer->EndOp();
      if (gates.Check(report.ok() && counts.ok(), "set-up replica failed")) {
        tally.chases.push_back(*counts);
      }
    }
    const Clock::time_point setup_start = Clock::now();
    Result<quality::QualityContext> context =
        scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
    Result<std::unique_ptr<AssessmentServer>> server =
        context.ok() ? AssessmentServer::Start(std::move(*context), Options())
                     : Result<std::unique_ptr<AssessmentServer>>(
                           context.status());
    e2e.setup_s.Add(Ms(setup_start, Clock::now()) / 1e3);
    if (!server.ok()) {
      gates.Attempt();
      gates.Fail("server start failed: " + server.status().ToString());
      break;
    }

    // Row keys the generator makes carry its seed: distinct per slice.
    const testgen::ServeWorkload workload = testgen::GenerateServeWorkload(
        options.seed * 7919u + slice * 104729u, ops_per_slice);
    const Clock::time_point slice_start = Clock::now();
    RunClient((*server)->port(), workload, tracer, &e2e, &tally, &gates);
    measured_s += Ms(slice_start, Clock::now()) / 1e3;
    if (e2e.peak_rss_mb == 0) e2e.peak_rss_mb = PeakRssMb();

    (*server)->Shutdown();
    if (!(*server)->DrainStatus().ok() || !MatchesFromScratch(**server)) {
      gates.Fail("drain or from-scratch oracle failed: " +
                 (*server)->DrainStatus().ToString());
    }
    const serve::ServerMetrics& m = (*server)->metrics();
    tally.shed += m.shed_queue_full.load() + m.shed_tenant_rate.load();
    tally.retries += m.retries.load();
    tally.update_fallbacks += m.update_fallbacks.load();
    tally.internal_errors += m.internal_errors.load();
    ++slice;
    if (gates.failed() > 0) break;  // the run is already wrong: fail fast
  }
  e2e.busy_s = measured_s;

  if (tracer) {
    result.metrics = LayerMetrics(result.trace, tally, &gates);
  } else {
    EndToEndMetrics(e2e, "write", &result);
  }
  FinishGates(gates, &result);
  return result;
}

}  // namespace mdqa::perfbench
