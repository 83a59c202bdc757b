// Measurement plumbing shared by the benchmark's workloads: latency
// samples, the span recorder of the traced run, correctness gates, and
// the result a workload hands back to main.cc for printing.
#ifndef MDQA_PERFBENCH_HARNESS_H_
#define MDQA_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mdqa::perfbench {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point from, Clock::time_point to);
double Us(Clock::time_point from, Clock::time_point to);

/// Process peak resident set size (the kernel's high-water mark), in MB.
double PeakRssMb();

/// Latency samples of one kind of operation.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// What one invocation of the benchmark runs.
struct RunOptions {
  std::string workload;
  uint32_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// A few ops on shrunken inputs: the benchmark's own smoke test.
  bool smoke = false;
};

/// Correctness gates. Every op a workload attempts is counted once;
/// an op that failed, was refused, or produced a wrong answer counts as
/// failed. Gates run outside the timed regions.
class Gates {
 public:
  void Attempt() { ++attempted_; }
  /// Records a failed check against the current op (at most once per op
  /// is the caller's business); keeps the first few messages.
  void Fail(std::string_view why);
  /// Fail(why) unless `ok`; returns `ok`.
  bool Check(bool ok, std::string_view why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The traced run's span recorder. An op groups the public-API calls of
/// one benchmark operation; each call is a span under it, so all spans
/// of an op share the op's id. Spans stay in memory; `WriteChromeTrace`
/// writes them out once the run ends. Single-threaded: every traced call
/// is made from the thread that drives the workload.
class Tracer {
 public:
  /// Times one layer call of the current op (no-op on a null tracer).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t start_ns_;
  };

  uint64_t BeginOp(const char* kind, uint64_t parent = 0);
  void EndOp();
  uint64_t current_op() const { return current_; }

  /// Median, over the ops that called `layer`, of the layer's summed
  /// time in the op (ms); 0 when no op called it.
  double LayerMedianMs(std::string_view layer) const;
  /// Durations (ms) of every op of `kind`.
  Samples OpMs(std::string_view kind) const;
  /// Summed layer time over summed op time, across ops of `kinds`.
  double Coverage(const std::vector<std::string_view>& kinds) const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;  // a string literal: the layer call
    int64_t start_ns;
    int64_t end_ns;
    uint64_t op;
  };
  struct Op {
    uint64_t id;
    const char* kind;  // "assess", "write", "read", "setup", "split", ...
    uint64_t parent;   // op this one explains (split passes), else 0
    int64_t start_ns;
    int64_t end_ns;
  };

  static int64_t NowNs();

  uint64_t next_id_ = 0;
  uint64_t current_ = 0;
  size_t current_index_ = 0;
  std::vector<Op> ops_;
  std::vector<Span> spans_;
};

/// What one chase did, for the datalog.* counters.
struct ChaseCounts {
  uint64_t rounds = 0;
  uint64_t tgd_firings = 0;
  uint64_t facts_added = 0;
  uint64_t nulls_created = 0;
  uint64_t egd_merges = 0;
  uint64_t total_facts = 0;
};

/// The per-layer figures a traced run gathers besides its spans.
struct LayerTally {
  std::vector<ChaseCounts> chases;
  Samples report_bytes;
  uint64_t rows_tried = 0;  // over every read, for rows per answer
  uint64_t answers = 0;
  uint64_t extend_fallbacks = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t update_fallbacks = 0;
  uint64_t internal_errors = 0;
  /// Span kinds whose ops trace.coverage and trace.overhead describe.
  std::vector<std::string_view> op_kinds;
  /// The untraced twin of the traced ops, for trace.overhead.
  Samples untraced_op_ms;
};

/// The end-to-end figures of an untraced run.
struct EndToEnd {
  Samples setup_s;
  Samples op_ms;
  Samples read_us;
  /// throughput_per_s is ops_completed / busy_s: the workload's ops over
  /// their op + read time in a single-caller loop, every request over the
  /// slice time in serve-mixed.
  uint64_t ops_completed = 0;
  double busy_s = 0;
  /// Read when the first slice ends: later slices repeat its work, and
  /// each new serve-mixed server's threads would add allocator arenas, so
  /// a whole-run high-water mark grew with how many slices fit the run.
  double peak_rss_mb = 0;
};

/// One named metric of a result.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run produced.
struct WorkloadResult {
  /// The result line's metrics: end-to-end in an untraced run,
  /// per-layer in a traced one.
  std::vector<Metric> metrics;
  /// The same figures under the names the workload's docs use, plus the
  /// error rate and sample counts (printed as human-readable lines).
  std::vector<Metric> report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;
  /// Spans of a traced run, written out at exit.
  Tracer trace;
};

/// Every per-layer metric, in BENCHMARK.json order. Fails a gate when
/// trace.overhead leaves [0.8, 1.25] with 20 or more ops on each side:
/// the traced ops re-compose calls the library makes internally
/// (replica.cc), and a traced op that no longer costs what the real call
/// costs means the replica has drifted from the code it stands for, so
/// its layer times describe something else.
std::vector<Metric> LayerMetrics(const Tracer& trace, const LayerTally& tally,
                                 Gates* gates);

/// Every end-to-end metric, in BENCHMARK.json order, plus its readable
/// report under the workload's own names: `op_name` is "assess" or
/// "write".
void EndToEndMetrics(const EndToEnd& e2e, const char* op_name,
                     WorkloadResult* result);

/// Copies a gate tally into a result.
void FinishGates(const Gates& gates, WorkloadResult* result);

}  // namespace mdqa::perfbench

#endif  // MDQA_PERFBENCH_HARNESS_H_
