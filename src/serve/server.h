#ifndef MDQA_SERVE_SERVER_H_
#define MDQA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/budget.h"
#include "base/thread_annotations.h"
#include "base/json.h"
#include "base/net.h"
#include "quality/assessor.h"
#include "quality/context.h"
#include "serve/access_log.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "storage/kb_store.h"

namespace mdqa::serve {

/// Tuning knobs for one `AssessmentServer`. The defaults are sized for
/// the soak test and perfbench's serve-mixed workload (loopback, hospital-scale KB); a production
/// deployment would raise the quotas and caps together.
struct ServerOptions {
  /// 0 picks an ephemeral port (read back with `port()`).
  uint16_t port = 0;
  int worker_threads = 4;
  /// Bounded accepted-connection queue. When full, new connections are
  /// shed immediately with 429 + Retry-After — admission control's last
  /// line: the queue is where latency hides, so it must not grow.
  size_t queue_capacity = 64;
  /// Seconds a shed client is told to back off (`Retry-After`).
  int shed_retry_after_sec = 1;
  /// Bounded writer queue for /update batches; full = 429.
  size_t update_queue_capacity = 32;

  /// Default per-tenant quota (admission rate + budget slice); override
  /// per tenant via `AssessmentServer::SetTenantQuota`.
  TenantQuota default_quota;
  /// Default per-request deadline when the client sends none
  /// (X-Mdqa-Deadline-Ms), clamped to the tenant quota's ceiling.
  std::chrono::milliseconds default_deadline{1000};

  /// Bounded retry with exponential backoff: a query whose evaluation
  /// trips its *counter* budget (kTruncated, not deadline/cancel) is
  /// retried up to `max_retries` more times, counter caps escalated by
  /// `escalation_factor` each attempt, sleeping backoff_base * 2^attempt
  /// between attempts — all inside the request's original deadline.
  int max_retries = 2;
  double escalation_factor = 4.0;
  std::chrono::milliseconds retry_backoff_base{2};

  /// Watchdog: every `watchdog_period`, requests running past their
  /// deadline by more than `watchdog_grace` get their CancellationToken
  /// cancelled; the engines unwind cooperatively at the next probe.
  std::chrono::milliseconds watchdog_period{20};
  std::chrono::milliseconds watchdog_grace{200};

  /// Socket/parse limits for request reading.
  HttpLimits http_limits;
  /// Parse limits for request *bodies* (stricter than the library default:
  /// a request body has no business nesting 64 levels deep).
  JsonLimits json_limits{/*max_depth=*/32, /*max_bytes=*/1 * 1024 * 1024};

  /// Chaos hook: attached to every per-request budget, so armed probes
  /// ("cq:row", ...) fire inside request evaluation. Not owned. The
  /// writer's ApplyUpdate/Reassess runs WITHOUT the injector — update
  /// application is exact or failed, never silently partial, which is
  /// what keeps the drain-time oracle byte-comparison meaningful.
  FaultInjector* fault_injector = nullptr;

  /// Durability (docs/durability.md). When non-null: Start() recovers the
  /// newest durable state and resumes at its committed generation WITHOUT
  /// re-running the chase (checkpoint restore + WAL roll-forward, then a
  /// fresh collapsing checkpoint); the writer thread WAL-appends (fsync)
  /// every DeltaBatch after it validates and BEFORE its snapshot
  /// publishes — the append is the commit point; and Shutdown writes a
  /// final checkpoint of the drained state. Not owned.
  storage::KbStore* store = nullptr;
  /// Fingerprint of the program/scenario this server runs, stamped into
  /// every checkpoint. Recovery refuses a checkpoint stamped with a
  /// different scenario (resuming a foreign KB would silently marry rows
  /// to the wrong rules).
  std::string scenario;

  /// Structured access logging: one JSON line per handled request
  /// (tenant, generation, engine, status, latency, outcome — including
  /// sheds, timeouts, and parse rejections). Capped and fsync-free by
  /// the AccessLog contract. Not owned.
  AccessLog* access_log = nullptr;
};

/// A long-lived multi-tenant assessment daemon: HTTP/1.1 + JSON over
/// loopback, serving concurrent quality queries against immutable
/// `PreparedContext` snapshots while a single writer thread applies
/// `DeltaBatch` updates (`ApplyUpdate` + `Reassess`) and publishes new
/// snapshots under a monotone generation counter.
///
/// Concurrency model (docs/robustness.md has the full failure model):
///  - Readers pin the current snapshot (shared_ptr) and serve entirely
///    from it — a response can never observe two generations (torn read).
///  - The shared Vocabulary is single-mutator: query parsing and update
///    application take the write side of `vocab_mu_`; evaluation and
///    answer rendering take the read side.
///  - Admission: per-tenant token buckets (429 + Retry-After on refusal),
///    then a bounded connection queue (shed when full), then a per-request
///    `ExecutionBudget` slice cut from the tenant quota.
///  - Every response computed from partial work is *labeled*
///    ("degraded": true + the interruption status); the watchdog cancels
///    requests that outlive their deadline.
///  - Drain (`Shutdown`, or SIGTERM in mdqa_serve): stop accepting,
///    finish queued + in-flight requests against their pinned snapshots,
///    quiesce the writer, then verify the drained state is internally
///    consistent (`DrainStatus`).
///
/// Endpoints: GET /healthz, GET /stats, GET /report, POST /query,
/// POST /assess, POST /update. Tenant id rides in X-Mdqa-Tenant
/// (default "anonymous"); deadlines in X-Mdqa-Deadline-Ms.
class AssessmentServer {
 public:
  /// Builds the initial snapshot (Prepare + full Assess — constraint
  /// violations and lint errors surface here), binds the listener, and
  /// starts the accept/worker/writer/watchdog threads.
  static Result<std::unique_ptr<AssessmentServer>> Start(
      quality::QualityContext context, const ServerOptions& options);

  ~AssessmentServer();
  AssessmentServer(const AssessmentServer&) = delete;
  AssessmentServer& operator=(const AssessmentServer&) = delete;

  uint16_t port() const { return listener_.port(); }

  void SetTenantQuota(const std::string& tenant, TenantQuota quota) {
    admission_.SetQuota(tenant, quota);
  }

  /// Hot tenant-quota reload (POST /admin/quotas, and SIGHUP in
  /// mdqa_serve): a JSON object mapping tenant id to a quota spec —
  /// {"acme": {"requests_per_sec": 50, "burst": 10, "max_deadline_ms":
  /// 500, "max_steps": 100000, "max_facts": 50000}} — with every field
  /// optional (defaults from ServerOptions::default_quota). All-or-
  /// nothing: every entry is validated before any is applied, so a
  /// malformed config is rejected (kInvalidArgument) and changes NO
  /// quota.
  Status ApplyQuotaConfig(const std::string& json_text);

  /// Graceful drain; idempotent, returns when every thread has exited.
  void Shutdown();

  /// Marks the server draining without blocking (async-signal-unfriendly
  /// work deferred: the signal handler in mdqa_serve only flips an atomic
  /// and the main thread calls Shutdown).
  void RequestDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Post-drain internal consistency check: queues empty, no in-flight
  /// requests, published generation == base generation + applied updates,
  /// final snapshot's report present and complete, final checkpoint (when
  /// a store is attached) written. kInternal on violation.
  Status DrainStatus() const;

  /// Generation of the initial snapshot: 1 for a fresh start, the
  /// recovered generation (checkpoint + WAL roll-forward) with a store.
  uint64_t base_generation() const { return base_generation_; }
  /// The store's degradation report from recovery (corrupt checkpoints
  /// fallen past, torn WAL tails cut). Empty for a clean start. Loud by
  /// design: mdqa_serve prints these at startup.
  const std::vector<std::string>& recovery_degradations() const {
    return recovery_degradations_;
  }
  /// Outcome of the drain-time checkpoint (Ok before Shutdown, and
  /// always Ok without a store). Read after Shutdown() returns.
  const Status& final_persist_status() const { return final_persist_status_; }

  uint64_t generation() const;
  /// The current (or, post-drain, final) published report, as rendered at
  /// publish time.
  std::string CurrentReportJson() const;
  /// The current snapshot's session, pinned — post-drain its database is
  /// the from-scratch oracle's input (tests rebuild a fresh context
  /// around a copy and byte-compare full Assess output).
  std::shared_ptr<const quality::PreparedContext> CurrentSession() const;

  const ServerMetrics& metrics() const { return metrics_; }

 private:
  /// One published world-state: everything a request needs, immutable.
  struct Snapshot {
    uint64_t generation = 0;
    std::shared_ptr<const quality::PreparedContext> session;
    std::shared_ptr<const quality::AssessmentReport> report;
    /// Rendered once at publish (on the writer, under the vocab write
    /// lock), so /report and /assess never touch the vocabulary.
    std::string report_json;
  };

  struct UpdateJob {
    quality::DeltaBatch batch;
    std::promise<Result<uint64_t>> done;  // new generation on success
  };

  /// Per-worker watchdog slot. The deadline is stored as steady-clock
  /// nanoseconds in an atomic so the watchdog's scan never races a
  /// worker re-arming the slot for its next request. A watchdog decision
  /// made a scan-period ago can in principle cancel the *next* request on
  /// the slot; that is harmless — cancellation is cooperative and the
  /// response is labeled degraded either way.
  struct RequestSlot {
    std::atomic<bool> active{false};
    std::atomic<int64_t> hard_deadline_ns{0};
    CancellationToken token;
  };

  AssessmentServer(quality::QualityContext context, ServerOptions options)
      : context_(std::move(context)), options_(options),
        admission_(options.default_quota) {}

  std::shared_ptr<const Snapshot> Pin() const;
  void Publish(std::shared_ptr<const Snapshot> snap);

  void AcceptLoop();
  void WorkerLoop(size_t worker_index);
  void WriterLoop();
  void WatchdogLoop();

  void HandleConnection(net::Socket sock, RequestSlot* slot);
  /// Route dispatch; returns the full serialized response.
  std::string Dispatch(const HttpRequest& req, RequestSlot* slot);
  std::string HandleHealth();
  std::string HandleStats();
  std::string HandleReport();
  std::string HandleQuery(const HttpRequest& req, RequestSlot* slot);
  std::string HandleAssess(const HttpRequest& req);
  std::string HandleUpdate(const HttpRequest& req, RequestSlot* slot);
  std::string HandleAdminQuotas(const HttpRequest& req);

  quality::QualityContext context_;
  ServerOptions options_;
  AdmissionController admission_;
  ServerMetrics metrics_;

  net::Listener listener_;

  mutable Mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_ MDQA_GUARDED_BY(snapshot_mu_);

  /// Guards the shared Vocabulary: write = parse/intern/update, read =
  /// evaluate/render. See the class comment. (The vocabulary itself is
  /// reached through the pinned snapshot, so the annotation lives on the
  /// lock discipline, not on a member.)
  mutable SharedMutex vocab_mu_;

  mutable Mutex conn_mu_;
  CondVar conn_cv_;
  std::deque<net::Socket> conn_queue_ MDQA_GUARDED_BY(conn_mu_);

  mutable Mutex update_mu_;
  CondVar update_cv_;
  std::deque<UpdateJob> update_queue_ MDQA_GUARDED_BY(update_mu_);

  std::vector<std::unique_ptr<RequestSlot>> slots_;
  std::atomic<uint64_t> in_flight_{0};

  std::atomic<bool> draining_{false};
  std::atomic<bool> accept_done_{false};
  std::atomic<bool> workers_done_{false};
  std::atomic<bool> stop_watchdog_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::thread writer_thread_;
  std::thread watchdog_thread_;
  bool shut_down_ = false;  // Shutdown() already ran (main thread only)

  /// Durability state (set once in Start; final_persist_status_ written
  /// by Shutdown on the owning thread, read after it returns).
  uint64_t base_generation_ = 1;
  std::vector<std::string> recovery_degradations_;
  Status final_persist_status_;
};

}  // namespace mdqa::serve

#endif  // MDQA_SERVE_SERVER_H_
