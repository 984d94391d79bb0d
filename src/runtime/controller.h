#pragma once

// The simulation controller: builds the machine, grid, partition, and task
// graphs, then drives the per-rank schedulers through initialization and
// timestepping with the old/new data-warehouse swap (Sec II).
//
// This is the top of the public API: benchmarks and examples configure a
// RunConfig and call run_simulation().

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "fault/fault.h"
#include "grid/partition.h"
#include "hw/machine_params.h"
#include "hw/perf_counters.h"
#include "obs/diag.h"
#include "obs/observation.h"
#include "obs/registry.h"
#include "obs/stream.h"
#include "runtime/application.h"
#include "runtime/problem.h"
#include "runtime/variant.h"
#include "schedpt/schedule.h"
#include "support/units.h"
#include "var/datawarehouse.h"

namespace usw::runtime {

struct RunConfig {
  ProblemSpec problem;
  Variant variant;
  int nranks = 1;
  int timesteps = 10;  ///< the paper evaluates 10 steps (Sec VII-A)
  var::StorageMode storage = var::StorageMode::kFunctional;
  grid::PartitionPolicy partition = grid::PartitionPolicy::kBlock;
  hw::MachineParams machine = hw::MachineParams::sunway_taihulight();
  bool collect_trace = false;
  /// Feed per-rank obs::MetricsRegistry instances (message/tile/offload
  /// size samples) while running; read back via runtime::observe().
  bool collect_metrics = false;

  // Future-work options (paper Sec IX), orthogonal to the variant:
  int cpe_groups = 1;         ///< concurrent kernels per CG (async modes)
  bool async_dma = false;     ///< double-buffered tile DMA
  bool packed_tiles = false;  ///< contiguous tile transfers
  /// Tile->CPE assignment within each offload (uswsim --tile-policy):
  /// the paper's static z-partition, or the deterministic atomic-counter
  /// self-scheduling emulations. See sched/tile_policy.h.
  sched::TilePolicy tile_policy = sched::TilePolicy::kStaticZ;
  /// Small-kernel heuristic: patches of at most this many cells run on the
  /// MPE even in offload modes (0 = always offload). See Sec V-C 3d.
  std::uint64_t mpe_kernel_threshold_cells = 0;

  /// Opt-in runtime validation (src/check, uswsim --validate): per-rank
  /// access checkers verify every DW access against the task graph's
  /// declarations, detect tile/task write races, lint the compiled
  /// communication, and sweep for orphaned messages at shutdown.
  /// Violations land in RankResult::violations / RunResult::comm_violations.
  check::CheckConfig check;

  /// Schedule-space exploration (src/schedpt, uswsim --schedule): fuzz the
  /// runtime's nondeterminism-relevant decisions within causal bounds,
  /// record the decision sequence to a file, or replay a recording
  /// exactly. Mode::kDefault (the default) takes the canonical schedule at
  /// zero cost. Numerics and archives are bit-equal across schedules on
  /// fault-free runs; combining fuzz with `faults` changes which messages
  /// the seq-hashed fault plan hits and is allowed but not comparable.
  schedpt::ScheduleSpec schedule;

  /// Deterministic fault injection (uswsim --inject): an empty plan runs
  /// fault-free. The same plan + seed produces bit-identical faults,
  /// virtual times, and fields.
  fault::FaultPlan faults;
  /// Recovery policy: message retransmission (comm) and
  /// restart-from-checkpoint on a step deadline (controller; requires
  /// checkpointing, i.e. output_dir + output_interval).
  fault::RecoveryConfig recovery;

  /// Diagnostics (uswsim --diag-dump / --flight-capacity /
  /// --hang-threshold-us): per-rank flight-recorder rings, the virtual-time
  /// hang watchdog, and structured dump targets. The defaults (recording
  /// on, watchdog at 10 virtual seconds) add no bit-level difference to
  /// any run — flight events are observations, never decisions.
  obs::DiagConfig diag;

  /// Streaming metrics (uswsim --metrics-stream=FILE[:interval]): rank 0
  /// appends one JSONL snapshot of cross-rank counters every `interval`
  /// completed timesteps. Disabled when `stream.file` is empty.
  obs::StreamSpec stream;

  // ---- Output / checkpoint (functional storage only) ----
  /// Archive directory; empty = no output.
  std::string output_dir;
  /// Save the computed fields every N completed steps (0 = never).
  int output_interval = 0;
  /// Restart from this archive instead of running initialization.
  std::string restart_dir;
  /// Archive step to restart from; -1 = the latest step present.
  int restart_step = -1;

  void validate() const;
};

struct RankResult {
  hw::PerfCounters counters;
  std::vector<TimePs> step_walls;  ///< per-timestep virtual wall time
  TimePs init_wall = 0;
  /// The rank's trace: its spans in begin order (null unless collect_trace
  /// is on). The rank pairs them from its flight-recorder log as each step
  /// ends, so it never keeps more than one step of events;
  /// runtime::observe() shares them, it does not copy.
  std::shared_ptr<const std::vector<obs::Span>> trace;
  std::map<std::string, double> metrics;  ///< application verification data
  /// Scheduler-fed samples and counters (null unless collect_metrics is
  /// on); shared with the observation like `trace`.
  std::shared_ptr<obs::MetricsRegistry> obs_metrics;
  /// Timestep-graph skeleton for the critical-path analyzer and the trace's
  /// names and ids (null unless collect_trace or collect_metrics is on).
  std::shared_ptr<const obs::TaskGraphInfo> graph_info;
  /// Initialization-graph skeleton, which the trace's spans of step -1
  /// resolve against (null unless collect_trace is on).
  std::shared_ptr<const obs::TaskGraphInfo> init_graph_info;
  /// Validator findings for this rank (empty unless RunConfig::check is on).
  std::vector<check::Violation> violations;
  /// Host (real) wall-clock per executed timestep, milliseconds. Restarted
  /// steps are truncated like step_walls, so indices line up. Machine-
  /// dependent: reported in the host profile only, never in gated output.
  std::vector<double> host_step_ms;
  /// Host wall-clock of this rank's initialization (or restart load), ms.
  double host_init_ms = 0.0;
};

struct RunResult {
  int nranks = 0;
  int timesteps = 0;
  /// Absolute step of the run's first timestep: 0, or the archive step a
  /// restart resumes from. Per-step vectors (step_walls, host_step_ms) and
  /// step_wall() are indexed from it; spans carry absolute steps.
  int first_step = 0;
  std::vector<RankResult> ranks;
  /// Run-level comm-lint findings (orphaned messages at shutdown).
  std::vector<check::Violation> comm_violations;
  /// Schedule-point decisions taken across the run (all kinds zero when
  /// RunConfig::schedule is Mode::kDefault).
  schedpt::PointCounters schedule_points;
  /// Host-side profile: phase wall-clock and per-schedule-point-kind
  /// overhead. Always filled (cheap); machine-dependent, so it never feeds
  /// gated output.
  obs::MetricsRegistry host;
  /// Path the diagnostic dump was written to ("" if none was requested).
  std::string diag_dump_path;

  /// All validator findings across ranks, then the run-level comm lint.
  std::vector<check::Violation> all_violations() const;

  /// Wall time of the run's step `s` (absolute step first_step + s): the
  /// slowest rank (what a host-side timer sees).
  TimePs step_wall(int s) const;
  /// Mean per-step wall over all steps.
  TimePs mean_step_wall() const;
  /// Sum of counted flops over all ranks across the whole run.
  double total_counted_flops() const;
  /// Achieved Gflop/s over the timestepping phase (Fig 9's metric).
  double achieved_gflops() const;
  /// Aggregated counters.
  hw::PerfCounters merged_counters() const;
};

/// Runs `app` under `config` on a simulated machine and returns per-rank
/// results. Deterministic: identical inputs give identical outputs.
RunResult run_simulation(const RunConfig& config, const Application& app);

}  // namespace usw::runtime
