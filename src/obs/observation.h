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
// A skeleton holds each fact once. Tasks keep no per-task message keys:
// the message table is indexed by message id, as send and receive spans
// carry it, and each message names its local task, so the critical-path
// analyzer reads its cross-rank edges from the same table the exporters
// resolve spans against.
//
// Sharing: a rank's spans, skeletons and metrics registry are immutable
// once its run ends. The RankResult holds each through a shared_ptr, and
// runtime::observe() shares them with the observation instead of copying
// them, so either may outlive the other.
//
// Size: a 512-rank, 20-step traced run of the halo problem observes 545k
// spans in 17.4 MB (32 bytes each) and peaks at 60.4 MB in all. The spans
// are the only per-span memory of the run: each rank paired them from one
// step of events at a time. Names exist only while an exporter formats a
// rank.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/perf_counters.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/units.h"

namespace usw::obs {

/// Skeleton of one detailed task: its names, patch and internal
/// successors. Its cross-rank dependencies are the messages that name it
/// as their task (MessageInfo::task).
struct TaskNodeInfo {
  std::string name;
  std::string label;  ///< "name pPATCH": names its task/offload/kernel spans
  int patch = -1;
  std::vector<int> successors;  ///< local detailed-task indices
};

/// One message of a compiled graph (task::ExtComm), as its send or
/// receive span shows it. A send on rank r with (peer p, tag t) matches
/// the receive on rank p with (peer r, tag t): the critical path's
/// cross-rank edges run from the one's task to the other's.
struct MessageInfo {
  std::string label;  ///< "var pFROM->pTO"
  int patch = -1;     ///< the local end: a send's source, a receive's target
  int peer = -1;      ///< remote rank
  int tag = -1;       ///< step-independent tag component
  std::uint64_t bytes = 0;
  /// Detailed-task index of the local end: a send's producer, a receive's
  /// consumer; -1 for a send of the old DW at step start, which no task
  /// makes.
  int task = -1;
  bool send = false;  ///< a send, else a receive
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
