#pragma once

// Structured spans: the observability layer's view of a rank's trace.
//
// The scheduler records span edges into the flight recorder's log
// (src/obs/flight.h) as events with integer operands only: step,
// detailed-task (or reduction) index, and CPE group, message index or
// retry attempt. A SpanBuilder pairs them into spans while the rank runs,
// and a span keeps what its begin edge recorded: those operands and the
// flight kind that opened it. Everything else is resolved at export, by a
// SpanResolver, from the rank's compiled-graph skeletons
// (src/obs/observation.h): the span's identity (detailed-task index,
// patch, peer/tag, CPE group, bytes) and its name. A span's *lane*, the
// track it renders on in the Chrome-trace exporter and the resource it
// occupies in the metrics rollups, follows from its kind (lane_of):
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
// the whole log pairs into as one chunk. A drain touches only the log,
// the open table and the span vector: no skeleton and no name.
//
// Layout: a span is 32 bytes of plain data: two stamps, its begin edge's
// three operands as 32-bit integers, the flight kind that opened it and
// the rolled-back mark. It holds no string, no skeleton data and no rank:
// its rank is the rank whose observation holds it.

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

/// The kind of span that the begin or point edge `opened_by` opens: kTaskBegin
/// .. kWaitBegin open their SpanKind in order, every other edge a fault.
constexpr SpanKind span_kind(FlightKind opened_by) {
  const int i = static_cast<int>(opened_by) - static_cast<int>(FlightKind::kTaskBegin);
  return i >= 0 && opened_by <= FlightKind::kWaitEnd ? static_cast<SpanKind>(i / 2)
                                                     : SpanKind::kFault;
}

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
  std::int32_t step = -1;  ///< timestep (-1 = initialization)
  /// Detailed-task or reduction index, as the begin edge recorded it; -1
  /// for an idle wait.
  std::int32_t b = -1;
  /// CPE group, message index (ExtComm::id) or retry attempt, as the begin
  /// edge recorded it; -1 when the edge has none.
  std::int32_t c = -1;
  /// The begin or point edge that opened the span.
  FlightKind opened_by = FlightKind::kTaskBegin;
  /// Recorded by an attempt of its step that a deadline restart rolled
  /// back: the Chrome trace shows it, the metrics rollups and the critical
  /// path leave it out.
  bool rolled_back = false;

  SpanKind kind() const { return span_kind(opened_by); }
  TimePs duration() const { return end - begin; }
};
static_assert(sizeof(Span) == 32, "a span is plain data: see the file comment");

/// Pairs span edges into spans chunk by chunk; other event kinds are
/// skipped. Tolerant: an end with no open begin is dropped; a begin that
/// never ends is closed, at finish(), at the latest span-edge stamp of
/// every chunk.
///
/// Cost: the open spans live in a flat open-addressing table keyed on the
/// edge's kind and operands, kept from one chunk to the next and grown by
/// doubling; a span links to the one it covers under the same key through
/// its own `end` until it closes. Spans go into one vector that grows like
/// any std::vector unless reserve() sized it. finish() makes one
/// sortedness check, and an O(n log n) stable sort only when begins were
/// recorded out of order.
class SpanBuilder {
 public:
  SpanBuilder();
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
  std::vector<Span> finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Resolves one rank's spans against its skeletons, at export: a span of
/// step -1 against `init`, any other against `step`.
///
/// Identity: a send or receive span's patch, peer, tag and bytes are its
/// message's; any other span of a detailed task has its task's patch, and
/// the CPE group its edge recorded unless it is a task span or a retry
/// backoff (whose operand c is an attempt). A reduction, or an idle wait,
/// has no task.
///
/// Names: a task, offload or kernel span is its task's label, a send or
/// receive its message's label, a reduction the reduction's name; an idle
/// wait is "idle", the synchronous scheduler spinning on a kernel
/// "cpe-spin", a retry backoff "retry backoff", and an injected stall or
/// failure "cpe_stall LABEL" or "offload_fail LABEL". Operands outside the
/// skeleton resolve to unset ids and the empty name (an exporter then shows
/// the kind).
///
/// Cost: ids() reads one skeleton entry; name() reads that entry's name
/// index and copies the name into names() at its first use (only a fault
/// name is formatted). Together they cost about 12 ns a span on a shared
/// Intel Xeon VM, so no exporter pays them per span: the Chrome-trace
/// exporter resolves each of a rank's distinct (skeleton, opened_by, b, c)
/// once, into a formatted fragment its spans share, and build_metrics
/// reads the task and message bytes it needs from the skeleton directly.
/// Only dump_spans(), for debugging, resolves every span. An exporter
/// makes one resolver per rank, so the names live only while that rank
/// exports.
class SpanResolver {
 public:
  /// `init` and `step` must outlive the resolver.
  SpanResolver(const TaskGraphInfo& init, const TaskGraphInfo& step);

  /// The identity of `s`.
  EventIds ids(const Span& s) const;
  /// The index of the name of `s` in names().
  std::uint32_t name(const Span& s);
  /// Each distinct name resolved so far, once; names()[0] is the empty
  /// name.
  const std::vector<std::string>& names() const { return names_; }

 private:
  /// A skeleton and the name index of each of its entries, 0 until first
  /// used.
  struct Graph {
    explicit Graph(const TaskGraphInfo& g);
    const TaskGraphInfo* info;
    std::vector<std::uint32_t> task, stall, fail, message, reduction;
  };

  /// The skeleton the spans of timestep `step` resolve against.
  const Graph& graph(int step) const { return step < 0 ? init_ : step_; }
  Graph& graph(int step) { return step < 0 ? init_ : step_; }
  /// The index of `name`, stored at its first use as `id`.
  std::uint32_t intern(std::uint32_t& id, std::string_view name);

  Graph init_;
  Graph step_;
  std::vector<std::string> names_;
};

/// Renders one line per span of `spans`, in their order: begin, duration,
/// kind, name (the kind when unnamed) and ids, resolved against `init` and
/// `step`, and a rolled-back mark. For debugging (uswsim --trace,
/// trace_viewer).
std::string dump_spans(std::span<const Span> spans, const TaskGraphInfo& init,
                       const TaskGraphInfo& step);

/// Virtual time covered by spans of `kind`: the union of their intervals,
/// so overlapping spans (two in-flight kernels) count once. `spans` must be
/// in begin order, as a SpanBuilder returns them.
TimePs covered_time(std::span<const Span> spans, SpanKind kind);

}  // namespace usw::obs
