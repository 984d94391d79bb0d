#include "athread/athread.h"

#include <algorithm>
#include <string>

#include "schedpt/schedule.h"
#include "support/error.h"

namespace usw::athread {

CpeCluster::CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord,
                       int rank, hw::PerfCounters* counters, int n_groups)
    : cost_(cost), coord_(coord), rank_(rank), counters_(counters) {
  const int cpes = cost.params().cpes_per_cg;
  if (n_groups < 1 || cpes % n_groups != 0)
    throw ConfigError("CPE group count " + std::to_string(n_groups) +
                      " must divide the CPE count " + std::to_string(cpes));
  groups_.resize(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    groups_[static_cast<std::size_t>(g)].cpe_busy.assign(
        static_cast<std::size_t>(cpes / n_groups), 0);
    all_groups_.push_back(g);
  }
}

void CpeCluster::spawn(const CpeJob& job, int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(!group.in_flight, "spawn while an offload is already in flight");
  coord_.advance(rank_, cost_.offload_launch());
  const int n = group_size();

  // The virtual results, fixed before any body runs.
  std::fill(group.cpe_busy.begin(), group.cpe_busy.end(), 0);
  TimePs longest = 0;
  const bool named = has_next_work_;
  if (named) {
    USW_ASSERT(next_cpes_.size() == next_busy_.size());
    for (std::size_t i = 0; i < next_cpes_.size(); ++i) {
      const int id = next_cpes_[i];
      USW_ASSERT_MSG(id >= 0 && id < n, "working CPE outside the group");
      group.cpe_busy[static_cast<std::size_t>(id)] = next_busy_[i];
      longest = std::max(longest, next_busy_[i]);
    }
    has_next_work_ = false;
  }
  group.completion = coord_.now(rank_) + longest;
  if (counters_ != nullptr) {
    counters_->kernels_offloaded += 1;
    counters_->kernel_time += longest;
  }

  // A throwing body propagates out of spawn() and leaves the group idle.
  if (job) {
    const auto run = [&job, n](int id) {
      CpeContext ctx(id, n);
      job(ctx);
    };
    if (named) {
      for (const int id : next_cpes_) run(id);
    } else {
      for (int id = 0; id < n; ++id) run(id);
    }
  }
  group.in_flight = true;
}

bool CpeCluster::in_flight(int g) const { return group(g).in_flight; }

bool CpeCluster::poll(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "poll with no offload in flight");
  coord_.advance(rank_, cost_.flag_poll());
  if (coord_.now(rank_) < group.completion) return false;
  group.in_flight = false;
  return true;
}

TimePs CpeCluster::earliest_completion() const {
  TimePs earliest = sim::kNever;
  for (const Group& g : groups_)
    if (g.in_flight) earliest = std::min(earliest, g.completion);
  return earliest;
}

void CpeCluster::join(int g) {
  Group& group = this->group(g);
  USW_ASSERT_MSG(group.in_flight, "join with no offload in flight");
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
