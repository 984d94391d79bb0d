#pragma once

// Structured spans: the observability layer's view of a rank's trace.
//
// The scheduler records flat begin/end events (src/sim/trace.h); this
// module pairs them into spans carrying the full identity — rank, step,
// detailed-task index, patch, peer/tag, CPE group — and assigns each span
// to a *lane*, the track it renders on in the Chrome-trace exporter and
// the resource it occupies in the metrics rollups:
//
//   MPE  - task execution, offload windows, reductions, idle waits
//   CPE  - kernel flight time on a CPE group
//   MPI  - message flight time (posted -> done)
//
// Pairing matches on the structured ids, so overlapping spans of one kind
// (two in-flight offloads with cpe_groups > 1, many posted messages) pair
// correctly where a stack discipline would not.

#include <string>
#include <vector>

#include "sim/trace.h"
#include "support/units.h"

namespace usw::obs {

enum class Lane { kMpe = 0, kCpe = 1, kMpi = 2 };
const char* to_string(Lane lane);

enum class SpanKind { kTask, kOffload, kKernel, kSend, kRecv, kReduce, kWait, kFault };
const char* to_string(SpanKind kind);

/// Lane a span kind renders on / the resource it occupies.
Lane lane_of(SpanKind kind);

struct Span {
  TimePs begin = 0;
  TimePs end = 0;
  SpanKind kind = SpanKind::kTask;
  Lane lane = Lane::kMpe;
  int rank = -1;
  sim::EventIds ids;
  std::string name;

  TimePs duration() const { return end - begin; }
};

/// Pairs `trace`'s begin/end events into spans (stamped with `rank`).
/// Tolerant: an end with no open begin is dropped; a begin that never ends
/// is closed at the trace's latest event stamp. Spans are returned in
/// begin order (stable for equal stamps).
///
/// Cost: one pass over the events through a hash table that holds only the
/// currently open spans (keyed on kind, ids and a view of the label), so
/// memory beyond the result is O(open spans); then a sortedness check, and
/// an O(n log n) stable sort only when begins were recorded out of order.
std::vector<Span> build_spans(const sim::Trace& trace, int rank);

}  // namespace usw::obs
