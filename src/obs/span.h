#pragma once

// Structured spans: the observability layer's view of a rank's trace.
//
// The scheduler records span edges into the flight recorder's log
// (src/obs/flight.h) as events with integer operands only: step,
// detailed-task index, and CPE group or message index. This module pairs
// them into spans and resolves, from the compiled-graph skeletons
// (src/obs/observation.h), each span's identity — step, detailed-task
// index, patch, peer/tag, CPE group, bytes — and its name. A span's
// *lane*, the track it renders on in the Chrome-trace exporter and the
// resource it occupies in the metrics rollups, follows from its kind
// (lane_of):
//
//   MPE  - task execution, offload windows, reductions, idle waits
//   CPE  - kernel flight time on a CPE group
//   MPI  - message flight time (posted -> done)
//
// Pairing matches on the integer operands, so overlapping spans of one kind
// (two in-flight offloads with cpe_groups > 1, many posted messages) pair
// correctly where a stack discipline would not.
//
// Layout: a span is 56 bytes of plain data. It holds no string and no
// rank: its name is an index into the rank's name table, where each
// distinct name is stored once, and its rank is the rank whose
// observation holds it.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.h"
#include "support/units.h"

namespace usw::obs {

struct TaskGraphInfo;

enum class Lane { kMpe = 0, kCpe = 1, kMpi = 2 };

enum class SpanKind { kTask, kOffload, kKernel, kSend, kRecv, kReduce, kWait, kFault };
const char* to_string(SpanKind kind);

/// Lane a span kind renders on / the resource it occupies.
Lane lane_of(SpanKind kind);

/// Structured identity of a span, so exported spans are machine-matchable
/// instead of only carrying a display string. Fields left at their
/// defaults mean "not applicable"; `step` -1 doubles as the initialization
/// timestep, which is how the scheduler labels it.
struct EventIds {
  int step = -1;   ///< timestep (-1 = initialization / unset)
  int task = -1;   ///< detailed-task index in the rank's compiled graph
  int patch = -1;  ///< patch id
  int peer = -1;   ///< remote rank (comm spans)
  int tag = -1;    ///< step-independent tag component (comm spans)
  int group = -1;  ///< CPE group (offload/kernel spans)
  std::uint64_t bytes = 0;  ///< message volume
};

struct Span {
  TimePs begin = 0;
  TimePs end = 0;
  EventIds ids;
  /// Index of the span's name in its rank's name table (span_name()).
  std::uint32_t name = 0;
  SpanKind kind = SpanKind::kTask;

  TimePs duration() const { return end - begin; }
};
static_assert(sizeof(Span) <= 56, "a span is plain data: see the file comment");

/// The name `s` indexes in `names`, its rank's name table. Empty when the
/// skeleton did not resolve one (the Chrome trace then shows the kind) or
/// when the index is outside the table.
inline std::string_view span_name(const Span& s, std::span<const std::string> names) {
  return s.name < names.size() ? std::string_view(names[s.name]) : std::string_view();
}

/// One rank's spans and the names they index.
struct SpanTable {
  std::vector<Span> spans;  ///< in begin order
  /// Each distinct span name once; names[0] is the empty name.
  std::vector<std::string> names;
};

/// Pairs the span edges among `events` into spans, resolving ids and names
/// in `init` for initialization events (step -1) and in `step` for
/// timestep events. Other event kinds are skipped. Tolerant: an end with no
/// open begin is dropped; a begin that never ends is closed at the latest
/// span-edge stamp. Spans are returned in begin order (stable for equal
/// stamps).
///
/// Cost: a counting pass sizes the result exactly. The pairing pass keeps
/// the open spans in a flat open-addressing table keyed on the edge's kind
/// and operands, sized once for the peak number of spans the counting pass
/// saw open (it grows only when ends that close nothing made that count
/// short). Then a sortedness check, and an O(n log n) stable sort only when
/// begins were recorded out of order. Each name is copied into the name
/// table once, at the first span that uses it; only a fault span formats
/// its name, and faults are rare.
SpanTable build_spans(std::span<const FlightEvent> events, const TaskGraphInfo& init,
                      const TaskGraphInfo& step);

/// Renders one line per span edge among `events` (a zero-length fault span
/// gives its begin and end line), named and identified as build_spans()
/// does. Other event kinds are left out. For debugging (uswsim --trace).
std::string dump_span_edges(std::span<const FlightEvent> events,
                            const TaskGraphInfo& init, const TaskGraphInfo& step);

/// Virtual time covered by spans of `kind`: the union of their intervals,
/// so overlapping spans (two in-flight kernels) count once. `spans` must be
/// in begin order, as build_spans() returns them.
TimePs covered_time(std::span<const Span> spans, SpanKind kind);

}  // namespace usw::obs
