#ifndef MDQA_BASE_BUDGET_H_
#define MDQA_BASE_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/status.h"

namespace mdqa {

/// How much of the ideal result (chase fixpoint, full proof search,
/// complete UCQ rewriting, full assessment) a run actually produced.
///
/// Every engine in this library is *monotone*: interrupting it early can
/// only lose derivations, never invent wrong ones. A `kTruncated` result
/// is therefore a sound under-approximation — every certain answer read
/// off a truncated chase instance (or collected by a truncated proof
/// search) is an answer of the complete run. Truncation is metadata to be
/// surfaced honestly, not an error to be retried blindly.
enum class Completeness {
  kComplete,   ///< the run reached its fixpoint / exhausted its search
  kTruncated,  ///< stopped early by a budget, deadline, or cancellation
};

const char* CompletenessToString(Completeness c);

/// Thread-safe cooperative cancellation flag. The owner (a request
/// handler, a signal handler, a watchdog thread) calls `Cancel()`; engines
/// poll it through `ExecutionBudget::Check` at their probe points and
/// unwind with partial results. Safe to trigger from a POSIX signal
/// handler (a relaxed atomic store is async-signal-safe).
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// Re-arms the token for the next run (not thread-safe vs. Cancel).
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Deterministic fault injection at named probe points, for testing the
/// exhaustion/degradation paths without real resource pressure. Engines
/// report probe hits through `ExecutionBudget::Check(probe)`; an armed
/// probe returns its configured status at a chosen hit ordinal.
///
///   FaultInjector faults;
///   faults.Arm("assessor:relation", /*trip_at_hit=*/2,
///              Status::ResourceExhausted("injected"));
///   // the second relation assessed trips; all others proceed.
///
/// Thread contract: one injector is routinely shared by every engine of a
/// run — pool workers hitting probes concurrently (the per-relation
/// assessor fan-out, UCQ disjunct evaluation) and, in mdqa_serve,
/// concurrent request handlers plus a chaos thread re-arming probes
/// mid-traffic. `Arm`, `Hit`, `HitCount`,
/// and `Reset` are therefore all safe to call concurrently (one mutex;
/// hit ordinals stay exact, never merely approximate — the deterministic
/// trip-at-hit contract survives concurrency, though *which* worker
/// observes the trip is scheduling-dependent). The concurrency regression
/// test lives in tests/budget_test.cc and runs under TSan via
/// scripts/check.sh --tsan.
class FaultInjector {
 public:
  /// `count` value meaning "keep firing forever once tripped".
  static constexpr uint64_t kAlways =
      std::numeric_limits<uint64_t>::max();

  /// Arms `probe`: hits number `trip_at_hit` .. `trip_at_hit + count - 1`
  /// (1-based) return `status`; all other hits pass. Re-arming replaces
  /// the previous configuration but keeps the hit count.
  void Arm(const std::string& probe, uint64_t trip_at_hit, Status status,
           uint64_t count = 1);

  /// Records a hit of `probe` and returns the armed status when it trips.
  Status Hit(const std::string& probe);

  /// Total hits recorded for `probe` (0 if never hit).
  uint64_t HitCount(const std::string& probe) const;

  /// Disarms everything and clears hit counts.
  void Reset();

 private:
  struct ProbeState {
    uint64_t hits = 0;
    bool armed = false;
    uint64_t trip_at = 0;
    uint64_t count = 0;
    Status status;
  };
  mutable std::mutex mu_;
  std::unordered_map<std::string, ProbeState> probes_;
};

/// A unified execution budget threaded through the whole QA stack
/// (`Chase::Run`, `DeterministicWsQa`, `UcqRewriter`, `CqEvaluator`,
/// `qa::Answer`, `quality::Assessor`): a monotonic wall-clock deadline,
/// unified fact/step/round counters, a memory high-water estimate, a
/// `CancellationToken`, and a `FaultInjector` hook.
///
/// Contract: any trip with a *truncation* code (`kResourceExhausted`,
/// `kCancelled` — see `IsTruncation`) makes the engine stop cooperatively
/// and return its partial result tagged `Completeness::kTruncated`; other
/// injected codes (e.g. a simulated allocation failure as `kInternal`)
/// propagate as hard errors. A default-constructed budget is unlimited
/// and nearly free to check.
///
/// Counter charges are atomic (relaxed), so one budget may be shared by
/// concurrent engine runs; the deadline check amortizes clock reads over
/// `check_stride` calls to stay off the hot path.
class ExecutionBudget {
 public:
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  ExecutionBudget() = default;
  ExecutionBudget(const ExecutionBudget&) = delete;
  ExecutionBudget& operator=(const ExecutionBudget&) = delete;

  // ---- configuration (set before the run) ----

  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetDeadlineAfter(std::chrono::milliseconds delta) {
    SetDeadline(std::chrono::steady_clock::now() + delta);
  }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const {
    return deadline_;
  }

  void set_max_facts(uint64_t n) { max_facts_ = n; }
  void set_max_steps(uint64_t n) { max_steps_ = n; }
  void set_max_rounds(uint64_t n) { max_rounds_ = n; }
  void set_max_memory_bytes(uint64_t n) { max_memory_bytes_ = n; }
  /// Engines skip computing memory estimates entirely when no limit is
  /// set — estimating is O(instance), far costlier than a counter.
  bool has_memory_limit() const { return max_memory_bytes_ != kUnlimited; }

  void set_cancellation(CancellationToken* token) { cancel_ = token; }
  CancellationToken* cancellation() const { return cancel_; }
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* fault_injector() const { return faults_; }

  /// Deadline checks read the clock once per `stride` calls to `Check`
  /// (rounded up to a power of two so the hot path masks instead of
  /// dividing; default 256 keeps the chase hot loop under ~2% overhead —
  /// see bench_budget_overhead).
  void set_check_stride(uint32_t stride) {
    uint32_t pow2 = 1;
    while (pow2 < stride && pow2 < (1u << 30)) pow2 <<= 1;
    stride_mask_ = pow2 - 1;
  }

  /// Copies deadline, cancellation token, and fault injector from
  /// `parent` — the derived-budget pattern `quality::Assessor` uses for
  /// per-relation isolation: fresh counters, shared controls.
  void InheritControlsFrom(const ExecutionBudget& parent);

  /// Clears counters, the memory high-water mark, and the deadline tick
  /// so the budget can drive another run (controls and limits stay).
  void ResetUsage();

  // ---- charging (engines call these as they work) ----
  // Inline so the unlimited case is a compare-and-return and the
  // in-budget case one relaxed fetch_add — no out-of-line call, no
  // Status round-trip on the hot path.

  Status ChargeFacts(uint64_t n = 1) {
    if (max_facts_ == kUnlimited) return Status();
    uint64_t total = facts_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total <= max_facts_) return Status();
    return OverLimit("fact", total, max_facts_);
  }
  Status ChargeSteps(uint64_t n = 1) {
    if (max_steps_ == kUnlimited) return Status();
    uint64_t total = steps_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total <= max_steps_) return Status();
    return OverLimit("step", total, max_steps_);
  }
  Status ChargeRounds(uint64_t n = 1) {
    if (max_rounds_ == kUnlimited) return Status();
    uint64_t total = rounds_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total <= max_rounds_) return Status();
    return OverLimit("round", total, max_rounds_);
  }

  /// Updates the memory high-water estimate and trips when it exceeds
  /// the configured limit.
  Status NoteMemory(uint64_t bytes);

  uint64_t facts() const { return facts_.load(std::memory_order_relaxed); }
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  uint64_t rounds() const {
    return rounds_.load(std::memory_order_relaxed);
  }
  uint64_t memory_high_water() const {
    return memory_hw_.load(std::memory_order_relaxed);
  }

  // ---- checking ----

  /// The hot-path check: fault probe (when an injector is attached),
  /// cancellation (one atomic load), deadline (clock read amortized over
  /// `check_stride` calls). `probe` names the call site, e.g. "cq:row".
  /// The common no-injector not-cancelled not-my-turn case stays inline:
  /// two null checks and one relaxed fetch_add.
  Status Check(const char* probe) {
    if (faults_ != nullptr) return CheckImpl(probe, /*amortize_clock=*/true);
    if (cancel_ != nullptr && cancel_->cancelled()) return CancelledAt(probe);
    if (has_deadline_ &&
        (tick_.fetch_add(1, std::memory_order_relaxed) & stride_mask_) == 0) {
      return DeadlineCheck(probe);
    }
    return Status();
  }

  /// Like `Check` but reads the clock unconditionally — for coarse
  /// checkpoints (round boundaries, per-relation gates).
  Status CheckNow(const char* probe);

  /// True for statuses that mean "stop, but the partial result is sound":
  /// budget/deadline exhaustion and cooperative cancellation. Engines
  /// degrade gracefully on these and propagate everything else.
  static bool IsTruncation(const Status& s) {
    return s.code() == StatusCode::kResourceExhausted ||
           s.code() == StatusCode::kCancelled;
  }

 private:
  Status CheckImpl(const char* probe, bool amortize_clock);
  Status DeadlineCheck(const char* probe) const;  // reads the clock
  static Status CancelledAt(const char* probe);
  static Status OverLimit(const char* what, uint64_t total, uint64_t limit);

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  uint64_t max_facts_ = kUnlimited;
  uint64_t max_steps_ = kUnlimited;
  uint64_t max_rounds_ = kUnlimited;
  uint64_t max_memory_bytes_ = kUnlimited;
  CancellationToken* cancel_ = nullptr;  // not owned
  FaultInjector* faults_ = nullptr;      // not owned
  uint32_t stride_mask_ = 255;  // stride 256; always a power of two − 1

  std::atomic<uint64_t> facts_{0};
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> memory_hw_{0};
  std::atomic<uint32_t> tick_{0};
};

}  // namespace mdqa

#endif  // MDQA_BASE_BUDGET_H_
