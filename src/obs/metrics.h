#pragma once

// Metrics registry and per-step/per-task rollups with stable JSON export.
//
// Two sources feed the report:
//
//   * a MetricsRegistry — a named bag of counters and sample
//     distributions (RunningStats + retained samples for percentiles)
//     that the scheduler fills while running (message sizes, tile sizes)
//     when RunConfig::collect_metrics is on;
//   * the structured spans and PerfCounters of a RunObservation, from
//     which build_metrics() derives the per-timestep kernel/comm/wait
//     breakdown, overlap efficiency (1 - wait/wall), per-task rollups,
//     bandwidths, per-step critical-path totals, and the fault.*
//     counters (injected, retries, degraded, restarts; emitted when
//     nonzero).
//
// write_metrics_json() is the stable machine-readable surface consumed by
// the bench drivers (BENCH_*.json) and the CI smoke job; field names are
// part of that contract.
//
// Cost: build_metrics() makes one pass over every span, bucketing the task
// spans by step, compiles the cross-rank DAG once, and runs the critical
// path's longest-path pass once per step: O(spans + steps x step tasks and
// edges), not O(steps x spans). It keeps the slowest step's whole chain
// for the report.
// write_metrics_json() takes each distribution's three percentiles by
// selection from one copy of its samples and streams through JsonWriter's
// bounded buffer (see json_writer.h for when it flushes).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/observation.h"
#include "obs/registry.h"
#include "support/units.h"

namespace usw::obs {

/// One timestep, aggregated over all ranks.
struct StepMetrics {
  int step = 0;              ///< absolute: the run's first_step + row
  TimePs wall = 0;           ///< slowest rank's step wall
  TimePs kernel = 0;         ///< CPE flight time, summed over ranks
  TimePs comm = 0;           ///< message flight time, summed over ranks
  TimePs wait = 0;           ///< MPE idle time, summed over ranks
  TimePs mpe_busy = 0;       ///< sum over ranks of (rank wall - rank wait)
  TimePs critical_path = 0;  ///< longest dependent task chain
  double overlap_efficiency = 0.0;  ///< 1 - wait / (sum of rank walls)
  std::uint64_t messages = 0;
  std::uint64_t message_bytes = 0;
};

/// One task (by name), aggregated over ranks, patches, and steps.
struct TaskMetrics {
  std::string name;
  std::uint64_t executions = 0;
  TimePs total = 0;
  TimePs max = 0;
  TimePs mean() const {
    return executions > 0 ? total / static_cast<TimePs>(executions) : 0;
  }
};

struct MetricsReport {
  int nranks = 0;
  int timesteps = 0;
  std::vector<StepMetrics> steps;  ///< timesteps only (init excluded)
  std::vector<TaskMetrics> tasks;

  // Run totals (PerfCounters, summed over ranks).
  TimePs kernel_time = 0;
  TimePs mpe_task_time = 0;
  TimePs comm_time = 0;
  TimePs wait_time = 0;
  TimePs total_wall = 0;  ///< sum over steps of the slowest rank's wall
  double overlap_efficiency = 0.0;
  double counted_flops = 0.0;
  /// DMA traffic over CPE busy time, and MPI traffic over message flight
  /// time, in GB/s of virtual time (0 when the denominator is empty). Both
  /// count every attempt of a step that a deadline restart replayed.
  double dma_bandwidth_gbs = 0.0;
  double message_bandwidth_gbs = 0.0;
  // Fault injection and recovery, summed over ranks (also the registry's
  // fault.* counters when nonzero).
  std::uint64_t fault_injected = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_degraded = 0;
  std::uint64_t fault_restarts = 0;

  MetricsRegistry registry;  ///< merged across ranks, plus fault.*
  /// The critical path of the slowest step (the first of equal walls);
  /// empty without steps or spans.
  CriticalPathReport critical_chain;
};

/// Builds the rollups from an observation (spans required for the
/// per-step breakdown; counters/walls always used). The per-step and
/// per-task rollups and the critical path read each step's committed
/// attempt only: spans a deadline restart rolled back are left out.
MetricsReport build_metrics(const RunObservation& run);

/// Stable JSON export of the report.
void write_metrics_json(std::ostream& os, const MetricsReport& report);

}  // namespace usw::obs
