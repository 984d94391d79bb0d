#pragma once

// The observability view of a finished run: per-rank spans plus the plain
// data needed to interpret them (task-graph skeleton, counters, walls).
//
// These are deliberately dumb structs with no dependency on the runtime
// layer — the controller fills a TaskGraphInfo from each compiled graph and
// runtime::observe() assembles the RunObservation from a RunResult, so the
// exporters and analyzers below obs/ never need to see scheduler or
// controller types (and unit tests can fabricate observations directly).
// The skeletons are also where recorded spans get their names: a span
// carries integer operands only, and every task, message and reduction
// label is formatted once per run, here. The exporters resolve each span
// against its rank's skeletons (obs::SpanResolver, src/obs/span.h): a span
// of the initialization step against the init graph's, any other against
// the timestep graph's.
//
// Sharing: a rank's spans, skeletons and metrics registry are immutable
// once its run ends. The RankResult holds each through a shared_ptr, and
// runtime::observe() shares them with the observation instead of copying
// them, so either may outlive the other.
//
// Size: a 512-rank, 20-step traced run of the halo problem observes 545k
// spans in 17.4 MB (32 bytes each) and peaks at 60.4 MB in all. The spans
// are the only per-span memory of the run: each rank paired them from one
// step of events at a time. Names exist only while an exporter resolves a
// rank (SpanResolver).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hw/perf_counters.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/units.h"

namespace usw::obs {

/// Skeleton of one detailed task, enough to rebuild the dependency DAG
/// that the critical-path analyzer walks.
struct TaskNodeInfo {
  std::string name;
  std::string label;  ///< "name pPATCH": names its task/offload/kernel spans
  int patch = -1;
  std::vector<int> successors;  ///< local detailed-task indices
  /// External messages as (peer rank, step-independent tag component);
  /// a send on rank r with key (p, t) matches the recv on rank p with
  /// key (r, t).
  std::vector<std::pair<int, int>> recv_keys;
  std::vector<std::pair<int, int>> send_keys;
};

/// One message of a compiled graph (task::ExtComm), as its send or
/// receive span shows it.
struct MessageInfo {
  std::string label;  ///< "var pFROM->pTO"
  int patch = -1;     ///< the local end: a send's source, a receive's target
  int peer = -1;      ///< remote rank
  int tag = -1;       ///< step-independent tag component
  std::uint64_t bytes = 0;
};

struct TaskGraphInfo {
  std::vector<TaskNodeInfo> tasks;      ///< by detailed-task index
  std::vector<MessageInfo> messages;    ///< by message index (ExtComm::id)
  std::vector<std::string> reductions;  ///< names, by reduction index
};

struct RankObservation {
  int rank = -1;
  /// The rank's spans in begin order; null when the run collected no
  /// trace.
  std::shared_ptr<const std::vector<Span>> trace;
  /// Timestep-graph skeleton; null when the run collected neither a trace
  /// nor metrics.
  std::shared_ptr<const TaskGraphInfo> skeleton;
  /// Initialization-graph skeleton, which the spans of step -1 resolve
  /// against; null when the run collected no trace.
  std::shared_ptr<const TaskGraphInfo> init_skeleton;
  hw::PerfCounters counters;
  /// Scheduler-fed samples/counters; null when none were collected.
  std::shared_ptr<const MetricsRegistry> metrics;
  std::vector<TimePs> step_walls;
  TimePs init_wall = 0;

  /// The spans, in begin order (none without a trace).
  std::span<const Span> spans() const {
    return trace ? std::span<const Span>(*trace) : std::span<const Span>();
  }
  /// The timestep skeleton, empty when there is none.
  const TaskGraphInfo& graph() const { return or_empty(skeleton); }
  /// The initialization skeleton, empty when there is none.
  const TaskGraphInfo& init_graph() const { return or_empty(init_skeleton); }
  /// A resolver of this rank's spans against its skeletons.
  SpanResolver resolver() const { return SpanResolver(init_graph(), graph()); }

 private:
  static const TaskGraphInfo& or_empty(const std::shared_ptr<const TaskGraphInfo>& g) {
    static const TaskGraphInfo kNone;
    return g ? *g : kNone;
  }
};

struct RunObservation {
  int nranks = 0;
  int timesteps = 0;
  /// Absolute step of the first timestep (a restarted run's archive step):
  /// RankObservation::step_walls[i] is the wall of step first_step + i.
  int first_step = 0;
  std::vector<RankObservation> ranks;
};

}  // namespace usw::obs
