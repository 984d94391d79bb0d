#pragma once

// The observability view of a finished run: per-rank spans plus the plain
// data needed to interpret them (task-graph skeleton, counters, walls).
//
// These are deliberately dumb structs with no dependency on the runtime
// layer — the controller fills a TaskGraphInfo from each compiled graph and
// runtime::observe() assembles the RunObservation from a RunResult, so the
// exporters and analyzers below obs/ never need to see scheduler or
// controller types (and unit tests can fabricate observations directly).
// The skeleton is also where recorded events get their names: events carry
// integer ids only, and every task, message and reduction label is
// formatted once per run, here. A rank's spans name themselves by index
// into its `span_names`, which build_spans() fills with each distinct
// label once (src/obs/span.h).
//
// Size: a 512-rank, 20-step traced run of the halo problem observes 545k
// spans in 31 MB (56 bytes each); their name tables hold 25k names in
// 0.8 MB.

#include <cstdint>
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
  std::vector<Span> spans;              ///< in begin order
  std::vector<std::string> span_names;  ///< indexed by Span::name
  TaskGraphInfo graph;  ///< timestep-graph skeleton
  hw::PerfCounters counters;
  MetricsRegistry metrics;  ///< scheduler-fed samples/counters (may be empty)
  std::vector<TimePs> step_walls;
  TimePs init_wall = 0;
};

struct RunObservation {
  int nranks = 0;
  int timesteps = 0;
  std::vector<RankObservation> ranks;
};

}  // namespace usw::obs
