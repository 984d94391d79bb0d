#pragma once

// The Sunway-specific task schedulers (Sec V).
//
// One Scheduler instance drives one rank (one core-group: MPE + 64 CPEs).
// Three operating modes reproduce the paper's Table IV:
//
//   kMpeOnly      ("host.*")  - step 3(b)iv executes the ready kernel on
//                               the MPE, no offload, no tiling;
//   kSyncMpeCpe   ("acc.sync") - kernels are offloaded, but the MPE spins
//                               on the completion flag: no overlap;
//   kAsyncMpeCpe  ("acc.async")- the paper's contribution: the MPE offloads
//                               a kernel, returns immediately, and spends
//                               the kernel's flight time progressing MPI,
//                               packing ghosts, and running MPE tasks,
//                               polling the completion flag "at times".
//
// Kernel vectorization ("acc_simd.*") is orthogonal and selected by
// SchedulerConfig::vectorize.
//
// The execute() loop follows Sec V-C:
//   1/2. (done at compile time: graph + load balancer)
//   3a.  post nonblocking receives for tasks depending on remote data;
//   3b.  flag set => post sends for the finished task, select the next
//        ready offloadable task, process its MPE part, offload;
//   3c.  test posted sends/receives, update dependent task status;
//   3d.  run ready MPE tasks (reductions, small kernels);
//   4.   per-step bookkeeping (fixed cost), reduction allreduces.
//
// Every span edge the loop observes (task, offload, kernel, send, receive,
// reduction, wait, fault) is recorded once into the rank's flight recorder
// as (kind, time, step, task, group or message); names are resolved from
// the compiled graph only at export (src/obs/span.h).

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "athread/athread.h"
#include "comm/comm.h"
#include "fault/fault.h"
#include "hw/perf_counters.h"
#include "obs/flight.h"
#include "sched/tile_exec.h"
#include "sched/tile_policy.h"
#include "task/graph.h"
#include "var/datawarehouse.h"

namespace usw::check {
class AccessChecker;
class HbChecker;
}  // namespace usw::check

namespace usw::obs {
class MetricsRegistry;
struct Distribution;
}  // namespace usw::obs

namespace usw::schedpt {
class ScheduleController;
}  // namespace usw::schedpt

namespace usw::sched {

enum class SchedulerMode { kMpeOnly, kSyncMpeCpe, kAsyncMpeCpe };

struct SchedulerConfig {
  SchedulerMode mode = SchedulerMode::kAsyncMpeCpe;
  bool vectorize = false;  ///< use the SIMD kernel variants

  /// How each offload's tiles are assigned to the CPEs of its group:
  /// the paper's static z-partition, or the atomic-counter self-scheduling
  /// emulations (sched/tile_policy.h). Deterministic under every policy.
  TilePolicy tile_policy = TilePolicy::kStaticZ;

  // Future-work options (paper Sec IX). The async scheduler keeps one
  // kernel in flight per CPE group of its CpeCluster (task + data
  // parallelism on a CG); synchronous modes use group 0 until fault
  // injection degrades it.
  bool async_dma = false;     ///< double-buffered tile DMA
  bool packed_tiles = false;  ///< contiguous tile transfers

  /// Stencil tasks on patches of at most this many cells run directly on
  /// the MPE even in offload modes — the "small kernels" of Sec V-C 3d,
  /// where the athread launch + tile staging overhead exceeds the win from
  /// 64 slow CPEs. 0 disables the heuristic.
  std::uint64_t mpe_kernel_threshold_cells = 0;

  /// Opt-in runtime validator (src/check): when set, the scheduler
  /// brackets task execution, records stencil/halo access regions, and
  /// installs the checker as the warehouses' access observer for the
  /// duration of each step. Null (the default) costs nothing.
  check::AccessChecker* checker = nullptr;

  /// Opt-in metrics sink (src/obs): when set, the scheduler feeds message
  /// and tile/offload size samples into the registry as it runs. Null (the
  /// default) costs nothing.
  obs::MetricsRegistry* metrics = nullptr;

  /// Opt-in schedule controller (src/schedpt): decides the kTileGrab
  /// points of each offload's tile planning. The same controller should be
  /// installed on the Network, the CpeCluster, and the Coordinator so the
  /// whole run shares one global decision sequence. Null = canonical.
  /// With a controller every offload plans its tiles afresh, so each draws
  /// its own decisions; without one a task's plan is built once.
  schedpt::ScheduleController* schedule = nullptr;

  /// Opt-in dynamic happens-before race oracle (src/check/hb.h): when set,
  /// the scheduler reports offload fork/join edges and access regions to
  /// it as the step runs. Null (the default) costs nothing.
  check::HbChecker* hb = nullptr;

  /// Opt-in fault injection (src/fault): deterministic CPE stalls, offload
  /// failures and DMA errors for this rank. Null (the default) runs
  /// fault-free and costs nothing.
  const fault::FaultInjector* faults = nullptr;

  /// The rank's event record (src/obs/flight.h): every span edge — task,
  /// offload, kernel, send, receive, reduction, wait and fault — and every
  /// group degradation is recorded once, with integer operands, as it is
  /// observed. The ring lets a crash dump show the runtime's last moves;
  /// a traced run's log is the trace. Timing side-effect free. Null (the
  /// default) records nothing.
  obs::FlightRecorder* flight = nullptr;
};

/// Per-timestep result for one rank.
struct StepStats {
  TimePs wall = 0;  ///< virtual time this rank spent on the step
};

class Scheduler {
 public:
  Scheduler(SchedulerConfig config, const grid::Level& level,
            const task::CompiledGraph& graph, comm::Comm& comm,
            athread::CpeCluster& cluster, hw::PerfCounters& counters);

  /// Executes one timestep of the compiled graph. `ctx` supplies the data
  /// warehouses and time information; reduction results are stored into
  /// ctx.new_dw. Collective: every rank must call it for the same step.
  StepStats execute(task::TaskContext& ctx);

  /// Mid-step queue-depth snapshot for diagnostic dumps. Pure local read;
  /// safe to call while the rank is parked on the coordinator.
  struct DiagStats {
    int step = -1;
    std::size_t ready = 0;
    std::size_t open_recvs = 0;
    std::size_t open_sends = 0;
    int done = 0;
    int offloads_in_flight = 0;
    int degraded_groups = 0;
  };
  DiagStats diag_stats() const;

 private:
  struct DtState {
    int pending_preds = 0;
    int pending_recvs = 0;
    bool done = false;
    int offload_attempts = 0;  ///< offloads tried (faults active only)
  };

  // --- step phases ---
  void allocate_outputs(task::TaskContext& ctx);
  void post_recvs(task::TaskContext& ctx);
  void post_send(task::TaskContext& ctx, const task::ExtComm& sc,
                 int dt_index = -1);
  void post_initial_sends(task::TaskContext& ctx);
  void run_loop_sync(task::TaskContext& ctx);
  void run_loop_async(task::TaskContext& ctx);
  void drain_sends();
  void finalize_reductions(task::TaskContext& ctx);

  // --- helpers ---
  /// First ready detailed task in compiled order satisfying
  /// `want_stencil` (or any when want_stencil < 0); -1 if none.
  int pick_ready(int want_stencil);
  bool is_stencil(int dt_index) const;
  /// Stencil destined for the CPE cluster (above the small-kernel
  /// threshold); small stencils are scheduled like MPE tasks.
  bool is_offloadable(int dt_index) const;
  void mpe_part(task::TaskContext& ctx, int dt_index);
  void run_stencil_on_mpe(task::TaskContext& ctx, int dt_index);
  void offload_stencil(task::TaskContext& ctx, int dt_index, int group);
  /// Rolls the finished offload's per-CPE busy times into the metrics
  /// registry (max/mean busy, idle fraction). Called from the completion
  /// paths of both scheduler loops.
  void sample_offload_imbalance(int group);
  /// The distributions the scheduler feeds into config_.metrics.
  enum class Metric {
    kSendBytes, kRecvBytes, kOffloadCells, kTileCells,
    kCpeBusyMax, kCpeBusyMean, kCpeIdleFrac, kCpeImbalance, kCount
  };
  /// Adds `v` to `metric` in config_.metrics, which must be set: through a
  /// handle taken at the metric's first sample, so a distribution the run
  /// never samples gets no entry.
  void sample(Metric metric, double v);
  // --- resilience (src/fault) ---
  /// Lowest non-degraded CPE group, or -1 when all are degraded.
  int first_usable_group() const;
  /// Lowest non-degraded group with no offload in flight, or -1.
  int first_free_usable_group() const;
  bool group_degraded(int group) const {
    return !degraded_.empty() && degraded_[static_cast<std::size_t>(group)];
  }
  /// Consults the injector about the just-completed offload of `dt_index`
  /// on `group`. On an injected failure: counts it, updates the group's
  /// failure streak, and degrades the group at the configured threshold.
  /// Returns true if the offload failed (caller drives retry/fallback).
  bool offload_fault_check(int dt_index, int group);
  /// Charges the exponential retry backoff before re-offloading attempt
  /// `attempt` + 1, recorded as a fault span.
  void charge_retry_backoff(int dt_index, int attempt);
  /// Recovers the failed offload of `dt_index` on `group`, for both
  /// scheduler loops. With retries left and `group` (or, once it is
  /// degraded, a free spare) usable: counts the retry, charges the backoff
  /// and returns the group to re-offload on. Otherwise runs the kernel on
  /// the MPE and returns -1; the caller then finishes the task.
  int recover_offload(task::TaskContext& ctx, int dt_index, int group);
  void run_mpe_body(task::TaskContext& ctx, int dt_index);
  void on_finished(task::TaskContext& ctx, int dt_index);
  /// Tests outstanding receives/sends; unpacks completed receives.
  /// Returns true if anything completed.
  bool progress_comm(task::TaskContext& ctx);
  void idle_wait();
  /// Fills open_ids_ with every open receive, then every open send.
  void collect_open_ids();
  /// Records one span edge of the current step: b is the detailed task
  /// (or reduction), c the CPE group, message index or retry attempt.
  void record(obs::FlightKind kind, TimePs time, int b, int c = -1) {
    if (config_.flight != nullptr) config_.flight->record(kind, time, step_, b, c);
  }
  var::DataWarehouse& dw_for(task::TaskContext& ctx, task::WhichDW which) const;
  kern::FieldView view_of(var::DataWarehouse& dw, const var::VarLabel* label,
                          int patch_id, bool for_write = false) const;
  kern::KernelEnv env_of(const task::TaskContext& ctx) const;

  SchedulerConfig config_;
  const grid::Level& level_;
  const task::CompiledGraph& graph_;
  comm::Comm& comm_;
  athread::CpeCluster& cluster_;
  hw::PerfCounters& counters_;

  /// What a stencil task needs on every run of its kernel that does not
  /// change from step to step (the graph is compiled once, Sec V-C 1-2).
  struct StencilPlan {
    /// Cost scale of an untiled MPE run: the patch scale times the
    /// cell-weighted mean of the per-tile scales, so counted flops stay
    /// identical across scheduler modes.
    double mpe_cost_scale = 1.0;
    /// The offload plan, built at the task's first offload and reused by
    /// every later one: later steps, retries and spare groups. Under a
    /// schedule controller each offload plans afresh and replaces it.
    std::unique_ptr<const TilePlan> tiles;
  };
  std::vector<StencilPlan> plans_;  ///< per detailed task, for the run

  /// The ready detailed tasks: one bit per dense task index, read in
  /// index order. Sized once per graph, so a step allocates nothing.
  class ReadySet {
   public:
    /// Empties the set and sizes it for task indices below `n`.
    void reset(std::size_t n) { words_.assign((n + 63) / 64, 0); }
    void insert(int i) { word(i) |= bit(i); }
    void erase(int i) { word(i) &= ~bit(i); }
    std::size_t size() const;
    /// The lowest index in the set satisfying `pred`, or -1.
    template <typename Pred>
    int first(Pred pred) const {
      for (std::size_t w = 0; w < words_.size(); ++w)
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          const int i = static_cast<int>(w * 64) + std::countr_zero(bits);
          if (pred(i)) return i;
        }
      return -1;
    }

   private:
    static std::uint64_t bit(int i) { return std::uint64_t{1} << (i & 63); }
    std::uint64_t& word(int i) { return words_[static_cast<std::size_t>(i) >> 6]; }
    std::vector<std::uint64_t> words_;
  };

  // Transient per-step state.
  std::vector<DtState> state_;
  ReadySet ready_;
  /// A posted receive or send the step has not seen complete.
  struct OpenRequest {
    comm::RequestId id;
    int dt;  ///< consuming (receive) or producing (send) task; -1 = step start
    const task::ExtComm* comm;
  };
  std::vector<OpenRequest> open_recvs_;
  std::vector<OpenRequest> open_sends_;
  std::vector<double> reduction_acc_;
  std::vector<int> reduction_remaining_;
  int done_count_ = 0;
  int step_ = -1;                          ///< current ctx.step (-1 = init)
  std::vector<int> offloaded_;             ///< per CPE group: dt index or -1
  // Polling scratch, reused so a poll allocates nothing.
  std::vector<comm::RequestId> open_ids_;  ///< collect_open_ids()
  /// Offload scratch: the busy time of each working CPE (charge_offload).
  std::vector<TimePs> share_busy_;
  /// sample()'s handles, by Metric; null until its first sample.
  obs::Distribution* metric_[static_cast<int>(Metric::kCount)] = {};

  // Resilience state, persistent across steps (a degraded group stays
  // degraded for the remainder of the run).
  std::vector<char> degraded_;             ///< per CPE group
  std::vector<int> fail_streak_;           ///< consecutive offload failures
};

}  // namespace usw::sched
