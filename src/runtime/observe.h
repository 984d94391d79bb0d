#pragma once

// Bridge from a finished RunResult to the observability layer: pairs each
// rank's trace (its flight-recorder log) into spans named from the
// task-graph skeletons, and bundles them with the timestep skeleton,
// counters, and walls into an obs::RunObservation that the exporters
// (chrome trace, metrics JSON, report, critical path) consume.

#include "obs/observation.h"
#include "runtime/controller.h"
#include "task/graph.h"

namespace usw::runtime {

/// Extracts the plain-data skeleton of a compiled graph: the dependency
/// DAG the critical-path analyzer walks, and the task, message and
/// reduction labels that name trace spans (each formatted once, here).
/// Messages are indexed by ExtComm::id.
obs::TaskGraphInfo graph_info_of(const task::CompiledGraph& graph);

/// Assembles the observability view of `result`. Spans are present only
/// when the run collected a trace; counters and walls always are.
obs::RunObservation observe(const RunResult& result);

}  // namespace usw::runtime
