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
// This emulation keeps the exact protocol but swaps the backend:
//   * functionally, each CPE's kernel body runs on the host, staging real
//     data through a real capacity-checked Ldm buffer — so numerics, LDM
//     overflow, and tile logic are all genuinely exercised;
//   * temporally, each CPE accumulates virtual busy time (DMA + compute via
//     the CostModel) and the cluster's completion time is
//     spawn_time + max over CPEs — the MPE observes the flag set only once
//     its virtual clock passes that point.
//
// Two execution backends decide *where* the CPE bodies run:
//
//   Backend::kSerial  - every body runs on the MPE's host thread at spawn
//                       time, in CPE-id order. Deterministic, zero host
//                       synchronization; wall-clock is serial.
//   Backend::kThreads - bodies are dispatched across a persistent
//                       WorkerPool of real host threads; spawn() returns
//                       immediately and each CPE increments the group's
//                       completion counter with a real std::atomic
//                       fetch-add (the emulated faaw) when its body ends.
//                       Wall-clock scales with host cores.
//
// Both backends produce bit-identical field data and identical virtual-time
// results: virtual time stays the model, threads only buy wall-clock. The
// invariant holds because (a) per-CPE write-sets are disjoint (the tile
// checker enforces it), (b) each CPE accumulates busy time and performance
// counters into private per-CPE slots, and (c) the cluster folds those
// slots into the shared state in CPE-id order, on the MPE thread, after the
// real faaw counter reaches the group size. Any MPE-side query that needs
// the offload's virtual results (poll, flag, join, completion_time,
// earliest_completion) first blocks — in host wall-clock only — until the
// workers have published.
//
// An offload runs bodies only for the CPEs that have work. A planner that
// knows the tile->CPE assignment up front (sched/tile_exec.h) names those
// CPEs with set_active_cpes() before spawn(); every other CPE of the group
// runs no body and publishes zero busy time and zero counters — exactly
// what an empty body publishes — and the threads backend submits and
// counts only the active bodies. A spawn() with no active set runs every
// CPE. The same planner hands each body its precomputed CpeCharge: the
// body applies it with CpeContext::apply() and charges nothing tile by
// tile.
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

/// What one CPE's share of an offload adds to its busy time and counter
/// slot, known before the offload runs (sched::plan_tile_assignment). Every
/// tile body applies it with CpeContext::apply(), in both storage modes and
/// both DMA modes; only an injected DMA error's re-issue is charged apart.
struct CpeCharge {
  TimePs busy = 0;
  std::uint64_t tiles = 0;
  std::uint64_t grabs = 0;
  std::uint64_t dma_in = 0;   ///< bytes main memory -> LDM
  std::uint64_t dma_out = 0;  ///< bytes LDM -> main memory
  std::uint64_t cells = 0;
  /// Counted flops, accumulated tile by tile in execution order from 0.0:
  /// the sum the CPE's fresh counter slot would reach, bit for bit.
  double flops = 0.0;

  friend bool operator==(const CpeCharge&, const CpeCharge&) = default;
};

/// Per-CPE execution context handed to the kernel body.
class CpeContext {
 public:
  CpeContext(int cpe_id, int n_cpes, int cluster_cpes, hw::Ldm& ldm,
             const hw::CostModel& cost, hw::PerfCounters* counters)
      : cpe_id_(cpe_id), n_cpes_(n_cpes), cluster_cpes_(cluster_cpes),
        ldm_(ldm), cost_(cost), counters_(counters) {}

  /// Id of this CPE within its group.
  int cpe_id() const { return cpe_id_; }
  /// CPEs in this group (64 for whole-cluster offloads).
  int n_cpes() const { return n_cpes_; }

  /// This CPE's scratch-pad. Allocate tile buffers from it; overflow
  /// throws ResourceError exactly like exceeding the hardware LDM.
  hw::Ldm& ldm() { return ldm_; }

  /// athread_get: synchronous DMA main memory -> LDM. `src` may be null in
  /// timing-only mode (no copy, cost still charged). `strided` transfers
  /// run at reduced DMA efficiency (row-by-row tile staging).
  void get(const void* src, void* dst, std::size_t bytes, bool strided = true);

  /// athread_put: synchronous DMA LDM -> main memory.
  void put(const void* src, void* dst, std::size_t bytes, bool strided = true);

  /// Cost of one DMA of `bytes` without charging it (for the double-
  /// buffered pipeline, which overlaps DMA with compute).
  TimePs dma_cost(std::size_t bytes, bool strided = true) const;

  /// Charges compute time for `cells` cells of `kc` and counts its flops.
  void compute(std::uint64_t cells, const hw::KernelCost& kc, bool simd,
               bool ieee_exp = false);

  /// Charges raw virtual time (e.g. an exposed DMA re-transfer).
  void charge(TimePs dt) { busy_ += dt; }

  /// Counts an injected CPE-side fault (src/fault) in this CPE's private
  /// slot; the ordered per-group fold keeps totals backend-identical.
  void count_fault_injected() {
    if (counters_ != nullptr) counters_->fault_injected += 1;
  }
  /// Counts a CPE-side recovery action (e.g. a re-issued DMA).
  void count_fault_retry() {
    if (counters_ != nullptr) counters_->fault_retries += 1;
  }

  /// Charges a precomputed share: its busy time plus its counter deltas.
  void apply(const CpeCharge& charge);

  TimePs busy() const { return busy_; }

 private:
  int cpe_id_;
  int n_cpes_;
  int cluster_cpes_;  ///< DMA contention is against the whole cluster
  hw::Ldm& ldm_;
  const hw::CostModel& cost_;
  hw::PerfCounters* counters_;  ///< private per-CPE slot, never shared
  TimePs busy_ = 0;
};

/// Kernel body run once per CPE of the target group. Under
/// Backend::kThreads the same callable is invoked concurrently from
/// multiple host threads, so it must be safe to call re-entrantly and its
/// per-CPE write-sets must be disjoint.
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
  /// offloads' virtual results are discarded (nobody is left to ask).
  ~CpeCluster();

  CpeCluster(const CpeCluster&) = delete;
  CpeCluster& operator=(const CpeCluster&) = delete;

  int n_cpes() const { return cost_.params().cpes_per_cg; }
  int n_groups() const { return static_cast<int>(groups_.size()); }
  int group_size() const { return n_cpes() / n_groups(); }
  Backend backend() const { return backend_; }

  /// Restricts the next spawn() to the CPEs `cpes` of its group: distinct
  /// ids in ascending order, read during that spawn only. The others run
  /// no body; they publish zero busy time and zero counters.
  void set_active_cpes(std::span<const int> cpes) { next_active_ = cpes; }

  /// Offloads `job` to group `g`. Charges offload_launch of MPE time and
  /// records the spawn time. Runs a body for every CPE of the group, or
  /// only for those named by a preceding set_active_cpes(), which this call
  /// consumes. Backend::kSerial executes the bodies before returning;
  /// Backend::kThreads dispatches them onto the worker pool and returns
  /// immediately. The group must be idle. The copy of `job` is dropped
  /// when the offload publishes: inside spawn() under kSerial, at the first
  /// completion query (poll, join, ...) under kThreads.
  void spawn(const CpeJob& job, int g = 0);

  /// True between spawn() and the flag being observed complete.
  bool in_flight(int g = 0) const;
  /// True if any group has an offload in flight.
  bool any_in_flight() const;

  /// Polls group g's completion flag (charges flag_poll of MPE time).
  bool poll(int g = 0);

  /// Current flag value of group g: CPEs whose virtual completion the MPE
  /// clock has passed (the faaw counter an MPE would read).
  int flag(int g = 0) const;

  /// Completion time of group g's offload in flight or, once poll()/join()
  /// observed it, of its most recent one (valid until the next spawn()).
  TimePs completion_time(int g = 0) const;

  /// Per-CPE virtual busy times of group g's most recent offload (blocks
  /// until the workers publish under Backend::kThreads). Indexed by CPE id
  /// within the group; valid until the next spawn() on that group. The
  /// schedulers read this after completion to roll up load-imbalance
  /// telemetry.
  const std::vector<TimePs>& cpe_busy(int g = 0) const;
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
    // MPE-owned protocol state (never touched by workers).
    bool in_flight = false;
    bool published = true;  ///< virtual results folded into the state below
    TimePs spawn_time = 0;
    TimePs completion = 0;
    std::vector<TimePs> cpe_done;
    /// Shared copy the workers invoke; lives from spawn() to publish (a
    /// serial body that throws out of spawn() leaves it to the next spawn).
    CpeJob job;
    /// CPEs whose bodies the offload runs, ascending; the faaw target.
    std::vector<int> active;

    // Per-CPE slots: each worker writes exactly its own index, then bumps
    // `faaw`. The MPE reads them only after faaw == active.size(), so the
    // fetch-add release sequence orders every slot write before the read.
    // Only active CPEs' counter and error slots are reset and read.
    std::vector<TimePs> cpe_busy;
    std::vector<hw::PerfCounters> cpe_counters;
    std::vector<std::exception_ptr> cpe_errors;

    /// The real faaw: CPEs atomically increment it on completion; the MPE
    /// blocks on it before touching any virtual result of the offload.
    std::atomic<int> faaw{0};
  };

  Group& group(int g) const {
    return *groups_.at(static_cast<std::size_t>(g));
  }
  /// Runs one CPE body with a private context staged out of `ldm`.
  void run_cpe(Group& group, int cpe, hw::Ldm& ldm) const;
  /// Blocks until every CPE of `group` has faaw'd, then publishes once.
  void sync_group(Group& group) const;
  /// Folds per-CPE busy times and counters into the group's virtual
  /// completion state and the shared PerfCounters, in CPE-id order.
  void publish_group(Group& group) const;

  const hw::CostModel& cost_;
  sim::Coordinator& coord_;
  int rank_;
  hw::PerfCounters* counters_;
  schedpt::ScheduleController* schedule_ = nullptr;
  std::optional<std::span<const int>> next_active_;  ///< set_active_cpes()
  std::vector<int> all_groups_;  ///< 0..n_groups-1: the canonical sweep
  std::vector<int> poll_order_;  ///< scratch for a controlled sweep
  Backend backend_;
  hw::Ldm ldm_;                       ///< kSerial: shared, reset per CPE
  std::vector<hw::Ldm> worker_ldms_;  ///< kThreads: one per pool worker
  std::vector<std::unique_ptr<Group>> groups_;
  mutable std::mutex sync_mu_;
  mutable std::condition_variable sync_cv_;
  WorkerPool* pool_ = nullptr;  ///< kThreads dispatch target
  // Declared last so a private pool is torn down (joining its workers)
  // before the groups those workers reference.
  std::unique_ptr<WorkerPool> owned_pool_;
};

}  // namespace usw::athread
