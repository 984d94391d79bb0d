#include "athread/athread.h"

#include <algorithm>
#include <cstring>
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

void CpeContext::get(const void* src, void* dst, std::size_t bytes,
                     bool strided) {
  if (src != nullptr && dst != nullptr) std::memcpy(dst, src, bytes);
  busy_ += dma_cost(bytes, strided);
  if (counters_ != nullptr) counters_->dma_bytes_in += bytes;
}

void CpeContext::put(const void* src, void* dst, std::size_t bytes,
                     bool strided) {
  if (src != nullptr && dst != nullptr) std::memcpy(dst, src, bytes);
  busy_ += dma_cost(bytes, strided);
  if (counters_ != nullptr) counters_->dma_bytes_out += bytes;
}

TimePs CpeContext::dma_cost(std::size_t bytes, bool strided) const {
  return cost_.cpe_dma(bytes, cluster_cpes_, strided);
}

void CpeContext::compute(std::uint64_t cells, const hw::KernelCost& kc,
                         bool simd, bool ieee_exp) {
  busy_ += cost_.cpe_compute(cells, kc, simd, ieee_exp);
  if (counters_ != nullptr) counters_->count_kernel_cells(cells, kc);
}

void CpeContext::apply(const CpeCharge& charge) {
  busy_ += charge.busy;
  if (counters_ == nullptr) return;
  counters_->tiles_executed += charge.tiles;
  counters_->tile_grabs += charge.grabs;
  counters_->dma_bytes_in += charge.dma_in;
  counters_->dma_bytes_out += charge.dma_out;
  counters_->cells_computed += charge.cells;
  counters_->counted_flops += charge.flops;
}

CpeCluster::CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord,
                       int rank, hw::PerfCounters* counters, int n_groups,
                       Backend backend, WorkerPool* pool)
    : cost_(cost), coord_(coord), rank_(rank), counters_(counters),
      backend_(backend), ldm_(cost.params().ldm_bytes) {
  const int cpes = cost.params().cpes_per_cg;
  if (n_groups < 1 || cpes % n_groups != 0)
    throw ConfigError("CPE group count " + std::to_string(n_groups) +
                      " must divide the CPE count " + std::to_string(cpes));
  groups_.reserve(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    groups_.push_back(std::make_unique<Group>());
    groups_.back()->cpe_done.assign(
        static_cast<std::size_t>(cpes / n_groups), 0);
    all_groups_.push_back(g);
  }
  if (backend_ == Backend::kThreads) {
    if (pool == nullptr) {
      owned_pool_ = std::make_unique<WorkerPool>();
      pool = owned_pool_.get();
    }
    pool_ = pool;
    // Every pool worker gets an exclusive LDM model: CPE bodies running
    // concurrently must not share a bump allocator.
    worker_ldms_.reserve(static_cast<std::size_t>(pool_->size()));
    for (int w = 0; w < pool_->size(); ++w)
      worker_ldms_.emplace_back(cost.params().ldm_bytes);
  }
}

CpeCluster::~CpeCluster() {
  if (backend_ != Backend::kThreads) return;
  // Wait (host wall-clock) for any still-dispatched bodies: they reference
  // this cluster's group slots. Their virtual results are dropped.
  for (const std::unique_ptr<Group>& g : groups_) {
    if (g->published) continue;
    std::unique_lock<std::mutex> lk(sync_mu_);
    sync_cv_.wait(lk, [&g] {
      return g->faaw.load(std::memory_order_acquire) ==
             static_cast<int>(g->active.size());
    });
  }
}

void CpeCluster::run_cpe(Group& group, int cpe, hw::Ldm& ldm) const {
  ldm.reset();
  CpeContext ctx(cpe, group_size(), n_cpes(), ldm, cost_,
                 &group.cpe_counters[static_cast<std::size_t>(cpe)]);
  group.job(ctx);
  group.cpe_busy[static_cast<std::size_t>(cpe)] = ctx.busy();
}

void CpeCluster::spawn(const CpeJob& job, int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(!group.in_flight, "spawn while an offload is already in flight");
  USW_ASSERT_MSG(group.published, "spawn before the previous offload published");
  coord_.advance(rank_, cost_.offload_launch());
  group.spawn_time = coord_.now(rank_);
  group.completion = group.spawn_time;
  const int n = group_size();
  group.job = job;
  group.active.clear();
  if (next_active_) {
    group.active.assign(next_active_->begin(), next_active_->end());
    next_active_.reset();
  } else {
    for (int id = 0; id < n; ++id) group.active.push_back(id);
  }
  group.cpe_busy.assign(static_cast<std::size_t>(n), 0);
  // The counter and error slots are sized at the group's first offload;
  // after that only the active CPEs' slots are reset and read.
  group.cpe_counters.resize(static_cast<std::size_t>(n));
  group.cpe_errors.resize(static_cast<std::size_t>(n));
  for (const int id : group.active) {
    USW_ASSERT_MSG(id >= 0 && id < n, "active CPE outside the group");
    group.cpe_counters[static_cast<std::size_t>(id)] = hw::PerfCounters{};
    group.cpe_errors[static_cast<std::size_t>(id)] = nullptr;
  }
  group.faaw.store(0, std::memory_order_relaxed);
  if (backend_ == Backend::kSerial) {
    // A throwing body (e.g. LDM overflow) propagates out of spawn() and
    // leaves the group idle, exactly as before backends existed.
    for (const int id : group.active) run_cpe(group, id, ldm_);
    group.in_flight = true;
    group.published = false;
    publish_group(group);
  } else {
    group.in_flight = true;
    group.published = false;
    for (const int id : group.active) {
      pool_->submit([this, &group, id](int worker) {
        try {
          run_cpe(group, id, worker_ldms_[static_cast<std::size_t>(worker)]);
        } catch (...) {
          group.cpe_errors[static_cast<std::size_t>(id)] =
              std::current_exception();
        }
        // The real faaw: bump the group's completion counter in shared
        // memory, then wake an MPE blocked in sync_group(). The release
        // fetch-add orders this CPE's slot writes before any MPE read
        // that observes the full count. The increment happens under
        // sync_mu_ so the MPE (which checks the count under the same
        // mutex) can only see the full count after this worker has
        // released the lock and no longer touches any cluster member —
        // otherwise a shared-pool MPE could destroy the cluster while
        // the last worker is between the fetch_add and the notify.
        std::lock_guard<std::mutex> lk(sync_mu_);
        group.faaw.fetch_add(1, std::memory_order_release);
        sync_cv_.notify_all();
      });
    }
  }
}

void CpeCluster::sync_group(Group& group) const {
  if (group.published) return;
  {
    std::unique_lock<std::mutex> lk(sync_mu_);
    sync_cv_.wait(lk, [&group] {
      return group.faaw.load(std::memory_order_acquire) ==
             static_cast<int>(group.active.size());
    });
  }
  publish_group(group);
}

void CpeCluster::publish_group(Group& group) const {
  group.published = true;
  // Every body has run: drop the job's copy of what it captured with the
  // offload rather than at the next spawn.
  group.job = nullptr;
  for (const int id : group.active) {
    if (const std::exception_ptr& error =
            group.cpe_errors[static_cast<std::size_t>(id)]) {
      // Deterministic error surface: the lowest-id failing CPE wins, as it
      // would have in serial execution. The offload is abandoned.
      group.in_flight = false;
      std::rethrow_exception(error);
    }
  }
  for (std::size_t id = 0; id < group.cpe_busy.size(); ++id) {
    group.cpe_done[id] = group.spawn_time + group.cpe_busy[id];
    group.completion = std::max(group.completion, group.cpe_done[id]);
  }
  if (counters_ != nullptr) {
    // Fold the active CPEs' slots in CPE-id order so the merged counters
    // (double accumulation included) are bit-identical across backends.
    // An idle CPE's slot would be all zeros, and adding +0.0 changes no
    // sum, so skipping it changes nothing.
    for (const int id : group.active)
      counters_->merge(group.cpe_counters[static_cast<std::size_t>(id)]);
    counters_->kernels_offloaded += 1;
    counters_->kernel_time += group.completion - group.spawn_time;
  }
}

bool CpeCluster::in_flight(int g) const { return group(g).in_flight; }

bool CpeCluster::any_in_flight() const {
  for (const std::unique_ptr<Group>& g : groups_)
    if (g->in_flight) return true;
  return false;
}

bool CpeCluster::poll(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "poll with no offload in flight");
  sync_group(group);
  coord_.advance(rank_, cost_.flag_poll());
  if (coord_.now(rank_) >= group.completion) {
    group.in_flight = false;
    return true;
  }
  return false;
}

int CpeCluster::flag(int g) const {
  Group& group = this->group(g);
  if (group.in_flight) sync_group(group);
  const TimePs now = coord_.now(rank_);
  int count = 0;
  for (TimePs done : group.cpe_done)
    if (done <= now) ++count;
  return count;
}

const std::vector<TimePs>& CpeCluster::cpe_busy(int g) const {
  Group& group = this->group(g);
  if (!group.published) sync_group(group);
  return group.cpe_busy;
}

TimePs CpeCluster::completion_time(int g) const {
  Group& group = this->group(g);
  sync_group(group);
  return group.completion;
}

TimePs CpeCluster::earliest_completion() const {
  TimePs earliest = sim::kNever;
  for (const std::unique_ptr<Group>& g : groups_) {
    if (!g->in_flight) continue;
    sync_group(*g);
    earliest = std::min(earliest, g->completion);
  }
  return earliest;
}

void CpeCluster::join(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "join with no offload in flight");
  sync_group(group);
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
