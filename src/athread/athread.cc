#include "athread/athread.h"

#include <algorithm>
#include <utility>

#include "schedpt/schedule.h"
#include "support/error.h"

namespace usw::athread {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kSerial: return "serial";
    case Backend::kThreads: return "threads";
  }
  return "?";
}

Backend backend_from_string(const std::string& name) {
  if (name == "serial") return Backend::kSerial;
  if (name == "threads") return Backend::kThreads;
  throw ConfigError("unknown backend '" + name + "' (expected serial|threads)");
}

CpeCluster::CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord,
                       int rank, hw::PerfCounters* counters, int n_groups,
                       Backend backend, WorkerPool* pool)
    : cost_(cost), coord_(coord), rank_(rank), counters_(counters),
      backend_(backend), pool_(pool) {
  USW_ASSERT_MSG(backend_ != Backend::kThreads || pool_ != nullptr,
                 "the threads backend needs a worker pool");
  const int cpes = cost.params().cpes_per_cg;
  if (n_groups < 1 || cpes % n_groups != 0)
    throw ConfigError("CPE group count " + std::to_string(n_groups) +
                      " must divide the CPE count " + std::to_string(cpes));
  groups_.reserve(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    auto group = std::make_unique<Group>();
    group->cpe_busy.assign(static_cast<std::size_t>(cpes / n_groups), 0);
    groups_.push_back(std::move(group));
    all_groups_.push_back(g);
  }
}

CpeCluster::~CpeCluster() {
  // Wait (host wall-clock) for any still-dispatched bodies: they reference
  // this cluster's group slots. Their errors are dropped.
  for (const std::unique_ptr<Group>& g : groups_) {
    if (g->dispatched == 0) continue;
    std::unique_lock<std::mutex> lk(sync_mu_);
    sync_cv_.wait(lk, [&g] {
      return g->faaw.load(std::memory_order_acquire) == g->dispatched;
    });
  }
}

void CpeCluster::run_cpe(const CpeJob& job, int cpe) const {
  CpeContext ctx(cpe, group_size());
  job(ctx);
}

void CpeCluster::spawn(const CpeJob& job, int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(!group.in_flight, "spawn while an offload is already in flight");
  coord_.advance(rank_, cost_.offload_launch());
  const TimePs spawn_time = coord_.now(rank_);
  const int n = group_size();

  // The virtual results, fixed before any body runs.
  std::fill(group.cpe_busy.begin(), group.cpe_busy.end(), 0);
  group.working.clear();
  TimePs longest = 0;
  if (has_next_work_) {
    USW_ASSERT(next_cpes_.size() == next_busy_.size());
    for (std::size_t i = 0; i < next_cpes_.size(); ++i) {
      const int id = next_cpes_[i];
      USW_ASSERT_MSG(id >= 0 && id < n, "working CPE outside the group");
      group.cpe_busy[static_cast<std::size_t>(id)] = next_busy_[i];
      longest = std::max(longest, next_busy_[i]);
    }
    group.working.assign(next_cpes_.begin(), next_cpes_.end());
    has_next_work_ = false;
  } else {
    for (int id = 0; id < n; ++id) group.working.push_back(id);
  }
  group.completion = spawn_time + longest;
  if (counters_ != nullptr) {
    counters_->kernels_offloaded += 1;
    counters_->kernel_time += longest;
  }

  if (job && backend_ == Backend::kSerial) {
    // A throwing body propagates out of spawn() and leaves the group idle.
    for (const int id : group.working) run_cpe(job, id);
  } else if (job) {
    group.job = job;
    group.cpe_errors.resize(static_cast<std::size_t>(n));
    for (const int id : group.working)
      group.cpe_errors[static_cast<std::size_t>(id)] = nullptr;
    group.faaw.store(0, std::memory_order_relaxed);
    group.dispatched = static_cast<int>(group.working.size());
    for (const int id : group.working) {
      pool_->submit([this, &group, id](int) {
        try {
          run_cpe(group.job, id);
        } catch (...) {
          group.cpe_errors[static_cast<std::size_t>(id)] =
              std::current_exception();
        }
        // The real faaw: bump the group's completion counter in shared
        // memory, then wake an MPE blocked in wait_bodies(). The release
        // fetch-add orders this CPE's writes before any MPE read that
        // observes the full count. The increment happens under sync_mu_
        // so the MPE (which checks the count under the same mutex) can
        // only see the full count after this worker has released the
        // lock and no longer touches any cluster member — otherwise a
        // shared-pool MPE could destroy the cluster while the last worker
        // is between the fetch_add and the notify.
        std::lock_guard<std::mutex> lk(sync_mu_);
        group.faaw.fetch_add(1, std::memory_order_release);
        sync_cv_.notify_all();
      });
    }
  }
  group.in_flight = true;
}

void CpeCluster::wait_bodies(Group& group) {
  if (group.dispatched == 0) return;
  {
    std::unique_lock<std::mutex> lk(sync_mu_);
    sync_cv_.wait(lk, [&group] {
      return group.faaw.load(std::memory_order_acquire) == group.dispatched;
    });
  }
  group.dispatched = 0;
  // Every body has run: drop the job's copy of what it captured with the
  // offload rather than at the next spawn.
  group.job = nullptr;
  for (const int id : group.working) {
    if (const std::exception_ptr& error =
            group.cpe_errors[static_cast<std::size_t>(id)]) {
      // Deterministic error surface: the lowest-id failing CPE wins, as it
      // would have in serial execution. The offload is abandoned.
      group.in_flight = false;
      std::rethrow_exception(error);
    }
  }
}

bool CpeCluster::in_flight(int g) const { return group(g).in_flight; }

bool CpeCluster::poll(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "poll with no offload in flight");
  coord_.advance(rank_, cost_.flag_poll());
  if (coord_.now(rank_) < group.completion) return false;
  wait_bodies(group);
  group.in_flight = false;
  return true;
}

TimePs CpeCluster::earliest_completion() const {
  TimePs earliest = sim::kNever;
  for (const std::unique_ptr<Group>& g : groups_)
    if (g->in_flight) earliest = std::min(earliest, g->completion);
  return earliest;
}

void CpeCluster::join(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "join with no offload in flight");
  wait_bodies(group);
  const TimePs before = coord_.now(rank_);
  coord_.wait_until(rank_, group.completion);
  if (counters_ != nullptr) counters_->wait_time += coord_.now(rank_) - before;
  group.in_flight = false;
}

std::span<const int> CpeCluster::poll_order() {
  // Canonical sweep: every group, ascending — byte-identical to the
  // historical poll loop.
  if (schedule_ == nullptr) return all_groups_;
  poll_order_.clear();
  for (int g = 0; g < n_groups(); ++g)
    if (group(g).in_flight) poll_order_.push_back(g);
  if (poll_order_.size() > 1) {
    const int k =
        schedule_->choose(schedpt::PointKind::kOffloadPoll, rank_,
                          static_cast<int>(poll_order_.size()));
    std::rotate(poll_order_.begin(), poll_order_.begin() + k,
                poll_order_.end());
  }
  return poll_order_;
}

}  // namespace usw::athread
