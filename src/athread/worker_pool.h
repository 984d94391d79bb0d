#pragma once

// A persistent pool of host worker threads for the real-threads CPE
// backend (Backend::kThreads in athread.h).
//
// One pool serves every CpeCluster of a simulation: clusters enqueue one
// task per working CPE of an offload that has data to move (a timing-only
// offload enqueues nothing), and the pool's threads drain the queue in
// submission order. Tasks receive the index of the worker executing them
// (0..size()-1). The pool owns one 64 KB Ldm model per worker, made at
// that worker's first CPE body (ldm()), so a threads-backend run holds at
// most one LDM per worker however many ranks share the pool, and a run
// whose offloads move no data holds none.
//
// The pool is intentionally dumb: no stealing, no priorities, FIFO only.
// Determinism of the simulation does not depend on execution order (CPE
// write-sets are disjoint, and the MPE fixes every virtual-time result
// before it submits), so the queue only has to be correct, not clever.
//
// Host profiling (opt-in via enable_profiling): per-task queue-wait and
// submit-side lock-contention times, plus per-worker task counts. All
// profile state is guarded by the pool mutex; samples are host wall-clock
// and never feed back into the simulation, so determinism is unaffected.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "hw/ldm.h"

namespace usw::athread {

class WorkerPool {
 public:
  /// Starts `n_threads` workers; 0 picks default_size().
  explicit WorkerPool(int n_threads = 0);

  /// Drains nothing: outstanding tasks still run, then workers exit.
  /// Callers (CpeCluster) must not destroy state referenced by queued
  /// tasks before those tasks complete.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues `task`; some worker eventually runs task(worker_index).
  void submit(std::function<void(int)> task);

  /// Worker `worker`'s LDM model of `capacity` bytes, made (zero-filled)
  /// at its first call; every call must name the same capacity. Call it
  /// only from a task running on that worker: CPE bodies running
  /// concurrently must not share a bump allocator, and no other thread
  /// touches a worker's LDM.
  hw::Ldm& ldm(int worker, std::size_t capacity);

  /// Host concurrency clamped to [1, 16]: beyond one thread per core the
  /// CPE bodies only contend, and 16 already covers every offload shape
  /// the schedulers produce.
  static int default_size();

  /// Host-profiling snapshot (see enable_profiling).
  struct PoolStats {
    std::uint64_t tasks = 0;                  ///< tasks executed
    std::vector<std::uint64_t> per_worker;    ///< tasks per worker index
    std::vector<double> queue_wait_us;        ///< enqueue->dequeue latency
    std::vector<double> lock_wait_us;         ///< submit-side mutex waits
    std::uint64_t samples_dropped = 0;        ///< over the sample cap
  };

  /// Starts collecting queue-wait and lock-contention samples. Sample
  /// vectors are capped at `sample_cap` entries each (drops counted), so
  /// memory stays bounded on long runs. Idempotent.
  void enable_profiling(std::size_t sample_cap = 8192);

  bool profiling() const;
  PoolStats stats() const;
  std::size_t queue_depth() const;

 private:
  struct Task {
    std::function<void(int)> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_main(int worker);
  void add_sample_locked(std::vector<double>& samples, double v);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;

  bool profile_ = false;
  std::size_t sample_cap_ = 0;
  PoolStats stats_;

  /// Per worker, sized before the workers start; see ldm().
  std::vector<std::optional<hw::Ldm>> ldms_;
  std::vector<std::thread> threads_;
};

}  // namespace usw::athread
