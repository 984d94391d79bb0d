#pragma once

// Emulation of Sunway's `athread` offload interface (Sec IV-B).
//
// On the real machine, the MPE spawns a group of lightweight threads (one
// per CPE) running a kernel function; the kernel stages data between main
// memory and its 64 KB LDM with athread_get/athread_put DMA calls and
// finally increments a completion flag in shared main memory with the
// `faaw` atomic. The MPE polls that flag to detect completion — this is
// what makes the paper's asynchronous scheduler possible.
//
// This emulation keeps the protocol but splits the two halves of an
// offload between the MPE and the CPE bodies:
//   * temporally, the MPE knows every working CPE's virtual busy time
//     before the offload runs (sched/tile_exec.h plans and charges it) and
//     names it with set_work(); spawn() fixes the offload's completion time
//     (spawn time + max busy), its per-CPE busy times and its counters on
//     the spot, and the MPE observes the flag set once its virtual clock
//     passes that completion time;
//   * functionally, each working CPE's kernel body runs on the host and
//     only computes real data, in place on the offload's main-memory
//     fields. The DMA transfers are charged on the MPE, and the LDM's
//     capacity rule is checked when the offload is planned, so a body
//     needs no scratch-pad of its own. A timing-only offload spawns an
//     empty job: no body runs.
//
// Every body runs inside spawn(), on the rank's own host thread, in CPE-id
// order. On the machine the bodies run concurrently with the MPE, but no
// simulated value depends on where or when a body runs on the host: spawn()
// has already fixed the completion time, no body computes a virtual
// result, and the working CPEs' write-sets are disjoint (the tile checker
// enforces it). Running them elsewhere would move host wall-clock only, so
// the cluster holds no thread, lock or atomic of its own, and a body's
// exception propagates out of spawn(). completion_time(),
// earliest_completion() and cpe_busy() are the offload's virtual results.
//
// The cluster can be partitioned into 1..64 equal CPE *groups* (the paper's
// future-work item "group CPEs and schedule different patches to different
// groups"): each group has its own completion flag and can run its own
// kernel concurrently with the others.
//
// Because results are materialized eagerly but are virtually "not yet
// computed" until the flag is set, callers must not consume results before
// poll()/join() reports completion; the schedulers respect this.

#include <functional>
#include <span>
#include <vector>

#include "hw/cost_model.h"
#include "hw/perf_counters.h"
#include "sim/coordinator.h"
#include "support/units.h"

namespace usw::athread {

/// Per-CPE execution context handed to the kernel body: which CPE it is.
/// Bodies only compute data; the offload's virtual cost is the MPE's
/// (CpeCluster::set_work).
class CpeContext {
 public:
  CpeContext(int cpe_id, int n_cpes) : cpe_id_(cpe_id), n_cpes_(n_cpes) {}

  /// Id of this CPE within its group.
  int cpe_id() const { return cpe_id_; }
  /// CPEs in this group (64 for whole-cluster offloads).
  int n_cpes() const { return n_cpes_; }

 private:
  int cpe_id_;
  int n_cpes_;
};

/// Kernel body run once per working CPE of the target group, inside
/// CpeCluster::spawn(); it computes the offload's data and charges nothing.
/// Its per-CPE write-sets must be disjoint.
using CpeJob = std::function<void(CpeContext&)>;

/// The 64-CPE cluster of one core-group, driven by one rank (its MPE),
/// optionally partitioned into independent groups.
class CpeCluster {
 public:
  /// `n_groups` must divide the CPE count; each group owns
  /// cpes_per_cg / n_groups CPEs and an independent completion flag.
  CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord, int rank,
             hw::PerfCounters* counters = nullptr, int n_groups = 1);

  CpeCluster(const CpeCluster&) = delete;
  CpeCluster& operator=(const CpeCluster&) = delete;

  int n_cpes() const { return cost_.params().cpes_per_cg; }
  int n_groups() const { return static_cast<int>(groups_.size()); }
  int group_size() const { return n_cpes() / n_groups(); }

  /// Names the next spawn()'s working CPEs and their virtual busy times:
  /// `cpes` are distinct ids of the group in ascending order and `busy[i]`
  /// is CPE cpes[i]'s busy time. Both are read during that spawn only.
  /// Every other CPE of the group is idle for the offload: busy 0, no body.
  void set_work(std::span<const int> cpes, std::span<const TimePs> busy) {
    next_cpes_ = cpes;
    next_busy_ = busy;
    has_next_work_ = true;
  }

  /// Offloads `job` to group `g`. Charges offload_launch of MPE time and
  /// fixes the offload's virtual results on the spot: the per-CPE busy
  /// times named by a preceding set_work() (which this call consumes; all
  /// zero without one), the completion time spawn + max busy, and the
  /// kernels_offloaded and kernel_time counters. Then runs `job` once per
  /// working CPE — every CPE of the group without set_work() — in CPE-id
  /// order before returning, and not at all when `job` is empty; the
  /// cluster keeps no copy of it. A throwing body propagates out and
  /// leaves the group idle. The group must be idle.
  void spawn(const CpeJob& job, int g = 0);

  /// True between spawn() and the flag being observed complete.
  bool in_flight(int g = 0) const;

  /// Polls group g's completion flag (charges flag_poll of MPE time).
  bool poll(int g = 0);

  /// Completion time of group g's offload in flight or, once poll()/join()
  /// observed it, of its most recent one (valid until the next spawn()).
  TimePs completion_time(int g = 0) const { return group(g).completion; }

  /// Per-CPE virtual busy times of group g's most recent offload, indexed
  /// by CPE id within the group; valid until the next spawn() on that
  /// group. The schedulers read this after completion to roll up
  /// load-imbalance telemetry.
  const std::vector<TimePs>& cpe_busy(int g = 0) const {
    return group(g).cpe_busy;
  }
  /// Earliest completion among all in-flight groups (kNever if none).
  TimePs earliest_completion() const;

  /// Blocks (virtual time) until group g's offload completes; the
  /// synchronous MPE+CPE mode's spin loop.
  void join(int g = 0);

  /// Installs a schedule controller for the kOffloadPoll point: which
  /// in-flight group's completion flag the async scheduler polls first.
  /// The controller must outlive the cluster; nullptr disarms.
  void set_schedule(schedpt::ScheduleController* schedule) {
    schedule_ = schedule;
  }

  /// Group polling order for a completion sweep. Without a controller this
  /// is every group in ascending id — the canonical order. With one, it is
  /// the in-flight groups, rotated by a kOffloadPoll decision when more
  /// than one offload is in flight (polling order only changes which
  /// completion the MPE *processes* first; each group's completion time is
  /// fixed at spawn, so numerics are unaffected). Valid until the next call.
  std::span<const int> poll_order();

 private:
  struct Group {
    bool in_flight = false;
    TimePs completion = 0;
    std::vector<TimePs> cpe_busy;  ///< per CPE id, fixed at spawn
  };

  Group& group(int g) { return groups_.at(static_cast<std::size_t>(g)); }
  const Group& group(int g) const {
    return groups_.at(static_cast<std::size_t>(g));
  }

  const hw::CostModel& cost_;
  sim::Coordinator& coord_;
  int rank_;
  hw::PerfCounters* counters_;
  schedpt::ScheduleController* schedule_ = nullptr;
  std::span<const int> next_cpes_;     ///< set_work()
  std::span<const TimePs> next_busy_;  ///< set_work()
  bool has_next_work_ = false;
  std::vector<int> all_groups_;  ///< 0..n_groups-1: the canonical sweep
  std::vector<int> poll_order_;  ///< scratch for a controlled sweep
  std::vector<Group> groups_;
};

}  // namespace usw::athread
