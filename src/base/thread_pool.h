#ifndef MDQA_BASE_THREAD_POOL_H_
#define MDQA_BASE_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/thread_annotations.h"

namespace mdqa {

/// A work-stealing thread pool shared by the parallel engines
/// (`quality::Assessor` per-relation fan-out, `UcqRewriter` disjunct
/// evaluation). One pool per process or
/// per request scope; engines take it as a non-owning pointer and a null
/// pool always means "run inline on the calling thread".
///
/// Scheduling: every worker owns a deque. `Submit` pushes to the
/// submitting worker's own deque (LIFO for locality) or, from an
/// external thread, round-robins across deques; idle workers pop their
/// own deque from the front and steal from the *back* of a victim's
/// deque, so stealers take the oldest (usually largest-remaining) work.
///
/// Determinism: the pool itself guarantees nothing about execution
/// order — callers that need deterministic results must merge worker
/// output canonically (see docs/parallelism.md for how the assessor and
/// the rewriter each do this).
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t threads);

  /// Joins all workers. Tasks still queued are drained before exit
  /// (ParallelFor callers never outlive their items, so a destructor
  /// racing live work is a caller bug).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `fn` for execution on some worker. Callable from any
  /// thread, including from inside a pool task.
  void Submit(std::function<void()> fn);

  /// Runs `fn(0) .. fn(n-1)`, returning when every item has finished.
  /// Items are claimed dynamically (an atomic cursor), so uneven item
  /// costs balance automatically. The calling thread participates;
  /// helper tasks are scheduled on the pool but only ever *claim* items
  /// — nested ParallelFor calls from inside pool tasks therefore cannot
  /// deadlock: the caller drains the cursor itself and waits only for
  /// items a helper has already started.
  ///
  /// `fn` must be safe to invoke concurrently from multiple threads and
  /// must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to report 0).
  static size_t DefaultThreads();

 private:
  struct Queue {
    Mutex mu;
    std::deque<std::function<void()>> tasks MDQA_GUARDED_BY(mu);
  };

  void WorkerLoop(size_t self);
  /// Pops own queue front, else steals a victim's back. Returns false
  /// when every queue was empty.
  bool TryRunOne(size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  Mutex idle_mu_;
  CondVar idle_cv_;
  std::atomic<uint64_t> pending_{0};  // queued, not yet started
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};  // round-robin for external Submit
};

}  // namespace mdqa

#endif  // MDQA_BASE_THREAD_POOL_H_
