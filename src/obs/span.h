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
// A traced rank pairs as it runs: a SpanBuilder takes the recorder's log
// after initialization and after every step and clears it, so no rank
// keeps more than one step of events. The builder keeps its open spans
// from one chunk to the next, so any split of a log pairs into the spans
// build_spans() pairs from the whole log.
//
// Layout: a span is 56 bytes of plain data. It holds no string and no
// rank: its name is an index into the rank's name table, where each
// distinct name is stored once, and its rank is the rank whose
// observation holds it.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.h"
#include "support/units.h"

namespace usw::obs {

struct TaskGraphInfo;

enum class Lane { kMpe = 0, kCpe = 1, kMpi = 2 };

enum class SpanKind : std::uint8_t {
  kTask, kOffload, kKernel, kSend, kRecv, kReduce, kWait, kFault
};
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
  /// Recorded by an attempt of its step that a deadline restart rolled
  /// back: the Chrome trace shows it, the metrics rollups and the critical
  /// path leave it out.
  bool rolled_back = false;

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

/// Pairs span edges into spans chunk by chunk, resolving ids and names in
/// `init` for initialization events (step -1) and in `step` for timestep
/// events; other event kinds are skipped. Tolerant: an end with no open
/// begin is dropped; a begin that never ends is closed, at finish(), at
/// the latest span-edge stamp of every chunk.
///
/// Cost: the open spans live in a flat open-addressing table keyed on the
/// edge's kind and operands, kept from one chunk to the next and grown by
/// doubling; a span links to the one it covers under the same key through
/// its own `end` until it closes. Spans go into one vector that grows like
/// any std::vector unless reserve() sized it. finish() makes one
/// sortedness check, and an O(n log n) stable sort only when begins were
/// recorded out of order. Each name is copied into the name table once, at
/// the first span that uses it; only a fault span formats its name, and
/// faults are rare.
class SpanBuilder {
 public:
  /// `init` and `step` must outlive the builder.
  SpanBuilder(const TaskGraphInfo& init, const TaskGraphInfo& step);
  ~SpanBuilder();

  /// Pairs the span edges among `events`, the next chunk of the log.
  void add(std::span<const FlightEvent> events);
  /// add()s the recorder's log, then clears it.
  void drain(FlightRecorder& recorder);

  /// Spans opened so far.
  std::size_t size() const;
  /// Room for `n` spans in all, so that later chunks do not grow the
  /// storage by doubling.
  void reserve(std::size_t n);
  /// Marks every span of timestep `step` or later opened so far as rolled
  /// back: a restart replays those steps.
  void roll_back(int step);

  /// Closes what is still open and returns the spans in begin order
  /// (stable for equal stamps). The builder is spent afterwards.
  SpanTable finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The spans of a whole log: a SpanBuilder given `events` as one chunk.
SpanTable build_spans(std::span<const FlightEvent> events, const TaskGraphInfo& init,
                      const TaskGraphInfo& step);

/// Renders one line per span of `table`, in its order: begin, duration,
/// kind, name (the kind when unnamed) and ids, and a rolled-back mark. For
/// debugging (uswsim --trace, trace_viewer).
std::string dump_spans(const SpanTable& table);

/// Virtual time covered by spans of `kind`: the union of their intervals,
/// so overlapping spans (two in-flight kernels) count once. `spans` must be
/// in begin order, as a SpanBuilder returns them.
TimePs covered_time(std::span<const Span> spans, SpanKind kind);

}  // namespace usw::obs
