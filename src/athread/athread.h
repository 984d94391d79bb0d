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
//     only moves real data, staging it through a real capacity-checked Ldm
//     buffer — so numerics, LDM overflow and tile logic are all genuinely
//     exercised. A timing-only offload spawns an empty job: no body runs,
//     and no LDM is ever made for it.
//
// Two execution backends decide *where* the CPE bodies run:
//
//   Backend::kSerial  - every body runs on the MPE's host thread at spawn
//                       time, in CPE-id order, through the cluster's one
//                       LDM, made at its first body. Deterministic, zero
//                       host synchronization; wall-clock is serial.
//   Backend::kThreads - bodies are dispatched across a persistent
//                       WorkerPool of real host threads; spawn() returns
//                       immediately and each CPE increments the group's
//                       completion counter with a real std::atomic
//                       fetch-add (the emulated faaw) when its body ends.
//                       A body stages through its worker's LDM, which the
//                       pool owns (one per worker, however many clusters
//                       share it). Wall-clock scales with host cores.
//
// Both backends produce bit-identical field data and identical virtual-time
// results: no body computes any virtual result, and per-CPE write-sets are
// disjoint (the tile checker enforces it). The MPE waits for the workers,
// in host wall-clock only, where it starts reading the offload's outputs:
// in the poll() that observes completion and in join() — and in the
// destructor, since the bodies reference the cluster. A body's exception
// surfaces there too; completion_time(), earliest_completion() and
// cpe_busy() never wait.
//
// The cluster can be partitioned into 1..64 equal CPE *groups* (the paper's
// future-work item "group CPEs and schedule different patches to different
// groups"): each group has its own completion flag and can run its own
// kernel concurrently with the others.
//
// Because results are materialized eagerly but are virtually "not yet
// computed" until the flag is set, callers must not consume results before
// poll()/join() reports completion; the schedulers respect this. Under
// Backend::kThreads the kernel body additionally runs concurrently with
// the MPE thread and with the other CPEs of its offload, so bodies must be
// re-entrant and must not touch MPE-owned state.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "athread/worker_pool.h"
#include "hw/cost_model.h"
#include "hw/ldm.h"
#include "hw/perf_counters.h"
#include "sim/coordinator.h"
#include "support/units.h"

namespace usw::athread {

/// Where the emulated CPE kernel bodies execute.
enum class Backend {
  kSerial,   ///< on the MPE host thread, in CPE-id order (default)
  kThreads,  ///< across a WorkerPool of real host threads
};

const char* to_string(Backend backend);

/// Parses "serial" / "threads"; throws ConfigError otherwise.
Backend backend_from_string(const std::string& name);

/// Per-CPE execution context handed to the kernel body: which CPE it is
/// and its scratch-pad. Bodies only move data; the offload's virtual cost
/// is the MPE's (CpeCluster::set_work).
class CpeContext {
 public:
  CpeContext(int cpe_id, int n_cpes, hw::Ldm& ldm)
      : cpe_id_(cpe_id), n_cpes_(n_cpes), ldm_(ldm) {}

  /// Id of this CPE within its group.
  int cpe_id() const { return cpe_id_; }
  /// CPEs in this group (64 for whole-cluster offloads).
  int n_cpes() const { return n_cpes_; }

  /// This CPE's scratch-pad. Allocate tile buffers from it; overflow
  /// throws ResourceError exactly like exceeding the hardware LDM.
  hw::Ldm& ldm() { return ldm_; }

 private:
  int cpe_id_;
  int n_cpes_;
  hw::Ldm& ldm_;
};

/// Kernel body run once per working CPE of the target group; it moves the
/// offload's data and charges nothing. Under Backend::kThreads the same
/// callable is invoked concurrently from multiple host threads, so it must
/// be safe to call re-entrantly and its per-CPE write-sets must be
/// disjoint.
using CpeJob = std::function<void(CpeContext&)>;

/// The 64-CPE cluster of one core-group, driven by one rank (its MPE),
/// optionally partitioned into independent groups.
class CpeCluster {
 public:
  /// `n_groups` must divide the CPE count; each group owns
  /// cpes_per_cg / n_groups CPEs and an independent completion flag.
  /// Under Backend::kThreads the cluster dispatches CPE bodies onto
  /// `pool`; when `pool` is null it creates a private one.
  CpeCluster(const hw::CostModel& cost, sim::Coordinator& coord, int rank,
             hw::PerfCounters* counters = nullptr, int n_groups = 1,
             Backend backend = Backend::kSerial, WorkerPool* pool = nullptr);

  /// Blocks until every dispatched CPE body has finished; in-flight
  /// offloads are discarded (nobody is left to ask).
  ~CpeCluster();

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
  /// working CPE — every CPE of the group without set_work() — and not at
  /// all when `job` is empty. Backend::kSerial runs the bodies before
  /// returning; Backend::kThreads dispatches them onto the worker pool and
  /// returns immediately, keeping a copy of `job` until poll() or join()
  /// has waited for them. The group must be idle.
  void spawn(const CpeJob& job, int g = 0);

  /// True between spawn() and the flag being observed complete.
  bool in_flight(int g = 0) const;

  /// Polls group g's completion flag (charges flag_poll of MPE time). The
  /// poll that observes completion first waits for the offload's bodies.
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

  /// Blocks (virtual time) until group g's offload completes, after
  /// waiting for its bodies; the synchronous MPE+CPE mode's spin loop.
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
    // MPE-owned protocol state (never touched by workers).
    bool in_flight = false;
    TimePs completion = 0;
    std::vector<TimePs> cpe_busy;  ///< per CPE id, fixed at spawn
    /// CPEs whose bodies the most recent offload runs, ascending.
    std::vector<int> working;
    /// Bodies dispatched onto the pool and not yet waited for: the faaw
    /// target, 0 once wait_bodies() has returned.
    int dispatched = 0;
    /// Shared copy the workers invoke; lives from spawn() to the wait.
    CpeJob job;

    // Per-CPE error slots: each worker writes exactly its own index, then
    // bumps `faaw`. The MPE reads them only after faaw == dispatched, so
    // the fetch-add release sequence orders every slot write before the
    // read. Only the working CPEs' slots are reset and read.
    std::vector<std::exception_ptr> cpe_errors;

    /// The real faaw: CPEs atomically increment it on completion; the MPE
    /// blocks on it before reading any output of the offload.
    std::atomic<int> faaw{0};
  };

  Group& group(int g) const {
    return *groups_.at(static_cast<std::size_t>(g));
  }
  /// Runs `job` for one CPE with a private context staged out of `ldm`.
  void run_cpe(const CpeJob& job, int cpe, hw::Ldm& ldm) const;
  /// Blocks until every dispatched body of `group` has faaw'd, then drops
  /// the job and rethrows the lowest-id CPE's error, if any.
  void wait_bodies(Group& group);

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
  Backend backend_;
  /// kSerial: the LDM every body stages through, reset per CPE; made at
  /// the first body. kThreads bodies use their pool worker's.
  std::optional<hw::Ldm> ldm_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  WorkerPool* pool_ = nullptr;  ///< kThreads dispatch target
  // Declared last so a private pool is torn down (joining its workers)
  // before the groups those workers reference.
  std::unique_ptr<WorkerPool> owned_pool_;
};

}  // namespace usw::athread
