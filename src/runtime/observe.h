#pragma once

// Bridge from a finished RunResult to the observability layer: bundles
// each rank's spans (paired while the rank ran), init and timestep
// skeletons, metrics registry, counters and walls into an
// obs::RunObservation that the exporters (chrome trace, metrics JSON,
// report, critical path) consume, resolving the spans against the
// skeletons. The spans, skeletons and registry are shared with the result,
// not copied.

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
/// when the run collected a trace; counters and walls always are. Cheap:
/// copies only each rank's counters and step walls.
obs::RunObservation observe(const RunResult& result);

}  // namespace usw::runtime
