#ifndef MDQA_SERVE_METRICS_H_
#define MDQA_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace mdqa::serve {

/// Lock-free latency histogram: power-of-two microsecond buckets
/// (bucket i covers [2^i, 2^(i+1)) µs), relaxed atomic counters. Record
/// is one fetch_add on the hot path; percentiles are computed from a
/// snapshot and are exact to bucket resolution (~2x), which is plenty for
/// p50/p95/p99 reporting — this is an operational dial, not a paper
/// artifact.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // up to ~2^39 µs ≈ 6 days

  void Record(uint64_t micros);

  uint64_t Count() const;
  /// `p` in (0, 1]; returns the upper bound (µs) of the bucket containing
  /// the p-quantile, 0 when empty.
  uint64_t PercentileMicros(double p) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Operational counters for one server instance, exported at /stats.
/// All relaxed atomics — these are monotone tallies
/// read for observability, never for synchronization.
struct ServerMetrics {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_parsed{0};
  std::atomic<uint64_t> shed_queue_full{0};     // 429: connection queue full
  std::atomic<uint64_t> shed_tenant_rate{0};    // 429: token bucket refusal
  std::atomic<uint64_t> rejected_malformed{0};  // 4xx parse/limit refusals
  std::atomic<uint64_t> completed_ok{0};        // 2xx responses
  std::atomic<uint64_t> degraded_responses{0};  // 2xx but labeled degraded
  std::atomic<uint64_t> retries{0};             // budget-escalation retries
  std::atomic<uint64_t> watchdog_cancels{0};
  std::atomic<uint64_t> updates_applied{0};
  std::atomic<uint64_t> update_fallbacks{0};  // full re-chase fallbacks
  std::atomic<uint64_t> internal_errors{0};   // 5xx responses
  std::atomic<uint64_t> quota_reloads{0};     // accepted quota configs
  std::atomic<uint64_t> wal_appends{0};       // durable update commits
  LatencyHistogram latency;

  /// One JSON object with every counter plus p50/p95/p99 latency (µs).
  std::string ToJson() const;
};

}  // namespace mdqa::serve

#endif  // MDQA_SERVE_METRICS_H_
