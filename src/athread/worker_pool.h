#pragma once

// A persistent pool of host worker threads for the real-threads CPE
// backend (Backend::kThreads in athread.h).
//
// One pool serves every CpeCluster of a simulation: clusters enqueue one
// task per working CPE of an offload that has data to compute (a
// timing-only offload enqueues nothing), and the pool's threads drain the
// queue in submission order. Tasks receive the index of the worker
// executing them (0..size()-1).
//
// The pool is intentionally dumb: no stealing, no priorities, FIFO only.
// Determinism of the simulation does not depend on execution order (CPE
// write-sets are disjoint, and the MPE fixes every virtual-time result
// before it submits), so the queue only has to be correct, not clever.
//
// Host profiling (always on): per-task queue-wait and submit-side
// lock-contention times, plus per-worker task counts. All profile state is
// guarded by the pool mutex; samples are host wall-clock and never feed
// back into the simulation, so determinism is unaffected.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

  /// Enqueues `task`; some worker eventually runs task(worker_index).
  void submit(std::function<void(int)> task);

  /// Host concurrency clamped to [1, 16]: beyond one thread per core the
  /// CPE bodies only contend, and 16 already covers every offload shape
  /// the schedulers produce.
  static int default_size();

  /// Queue-wait and lock-contention samples kept per pool, each; later
  /// ones are counted as dropped, so memory stays bounded on long runs.
  static constexpr std::size_t kSampleCap = 8192;

  /// Host-profiling snapshot.
  struct PoolStats {
    std::uint64_t tasks = 0;                  ///< tasks executed
    std::vector<std::uint64_t> per_worker;    ///< tasks per worker index
    std::vector<double> queue_wait_us;        ///< enqueue->dequeue latency
    std::vector<double> lock_wait_us;         ///< submit-side mutex waits
    std::uint64_t samples_dropped = 0;        ///< over the sample cap
  };

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
  PoolStats stats_;

  std::vector<std::thread> threads_;
};

}  // namespace usw::athread
