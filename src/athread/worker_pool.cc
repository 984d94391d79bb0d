#include "athread/worker_pool.h"

#include <algorithm>

#include "support/error.h"

namespace usw::athread {

namespace {
double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

WorkerPool::WorkerPool(int n_threads) {
  if (n_threads < 0) throw ConfigError("worker pool size must be >= 0");
  const int n = n_threads > 0 ? n_threads : default_size();
  stats_.per_worker.assign(static_cast<std::size_t>(n), 0);
  ldms_.resize(static_cast<std::size_t>(n));
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::enable_profiling(std::size_t sample_cap) {
  std::lock_guard<std::mutex> lk(mu_);
  profile_ = true;
  sample_cap_ = sample_cap;
}

bool WorkerPool::profiling() const {
  std::lock_guard<std::mutex> lk(mu_);
  return profile_;
}

WorkerPool::PoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t WorkerPool::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

void WorkerPool::add_sample_locked(std::vector<double>& samples, double v) {
  if (samples.size() < sample_cap_) samples.push_back(v);
  else ++stats_.samples_dropped;
}

void WorkerPool::submit(std::function<void(int)> task) {
  // Measure submit-side lock contention without paying two clock reads on
  // the uncontended path: a successful try_lock means zero wait.
  std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
  double waited_us = 0.0;
  if (!lk.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    lk.lock();
    waited_us = us_since(t0);
  }
  USW_ASSERT_MSG(!stop_, "submit to a stopped worker pool");
  Task t;
  t.fn = std::move(task);
  if (profile_) {
    t.enqueued = std::chrono::steady_clock::now();
    add_sample_locked(stats_.lock_wait_us, waited_us);
  }
  queue_.push_back(std::move(t));
  lk.unlock();
  cv_.notify_one();
}

hw::Ldm& WorkerPool::ldm(int worker, std::size_t capacity) {
  std::optional<hw::Ldm>& slot = ldms_.at(static_cast<std::size_t>(worker));
  if (!slot) slot.emplace(capacity);
  USW_ASSERT_MSG(slot->capacity() == capacity,
                 "clusters sharing a worker pool must share the LDM capacity");
  return *slot;
}

int WorkerPool::default_size() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hc == 0 ? 4 : hc), 1, 16);
}

void WorkerPool::worker_main(int worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      if (profile_) {
        // Tasks enqueued before profiling was enabled carry no timestamp.
        if (task.enqueued != std::chrono::steady_clock::time_point{})
          add_sample_locked(stats_.queue_wait_us, us_since(task.enqueued));
        stats_.tasks += 1;
        stats_.per_worker[static_cast<std::size_t>(worker)] += 1;
      }
    }
    task.fn(worker);
  }
}

}  // namespace usw::athread
