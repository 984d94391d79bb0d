#pragma once

// Flight recorder: the runtime's one event record. Every fact the runtime
// observes (a step boundary, a message, a task, an offload, a wait) is one
// record() call with integer operands; no recording path builds a string.
// Two sinks take the events:
//  - a fixed-capacity ring per rank (plus one for the coordinator), so a
//    crash or hang dump shows the last N events, task and offload context
//    included. Old events are overwritten, never reallocated;
//  - when the run collects a trace, a log: a per-step buffer. The
//    controller hands it to the rank's obs::SpanBuilder (src/obs/span.h)
//    after initialization and after every step, which pairs its span edges
//    into spans and clears it, so the log holds one step of events at most
//    and keeps its capacity from one step to the next.
// Recording only copies already-computed values (virtual times, ids): it
// never reads host clocks and never feeds back into scheduling decisions.
//
// Concurrency contract: each recorder has a SINGLE logical writer — the
// rank thread that owns it (which only records while holding the
// coordinator token) or, for the coordinator ring, whichever thread
// currently holds the coordinator lock. The ring is read (snapshot(),
// recorded(), dropped()) only by the crash and final dumps, and a dump
// runs while every other writer is parked on the coordinator or joined: a
// crash dump runs under the coordinator lock before cancellation wakes
// anyone, from the thread of the rank granted at the time (the one that
// threw, or the one whose grant tripped the deadlock or watchdog check),
// and every parked rank took that lock after its last record; the final
// dump runs after every rank thread has joined. So the lock or the join
// orders each ring's writes before the dump reads them, no slot is ever
// read half-written, and a slot needs no stamp: snapshot() numbers the
// surviving events back from the head. The log is read and cleared only by
// its writer.

#include <cstdint>
#include <span>
#include <vector>

#include "support/units.h"

namespace usw::obs {

/// What happened. Operands a/b/c are kind-specific (documented per kind).
enum class FlightKind : std::uint8_t {
  kRankPick,       // coordinator granted the token: a=rank, b=candidate count
  kStepBegin,      // rank began a timestep: a=step
  kStepEnd,        // rank completed a timestep: a=step
  kMsgSend,        // posted a send: a=dst, b=msg seq, c=bytes
  kMsgMatch,       // matched an arrival to a recv: a=src, b=msg seq, c=bytes
  kMsgLost,        // fault plane dropped a send: a=dst, b=msg seq, c=attempt
  kMsgRetransmit,  // retransmit after timeout: a=dst, b=msg seq, c=attempt
  kMsgDelayed,     // fault plane delayed a send: a=dst, b=msg seq, c=attempt
  kGroupDegraded,  // CPE group degraded to MPE-only: a=group
  kCheckpoint,     // checkpoint written: a=step
  kRestart,        // restart from checkpoint: a=restart number, b=resume step

  // Span edges, recorded by the scheduler. a=step (-1 = initialization),
  // b=detailed-task index in that step's compiled graph, c as noted.
  // kTaskBegin .. kWaitEnd are (begin, end) pairs in obs::SpanKind order.
  kTaskBegin,      // MPE part of a task starts
  kTaskEnd,        // task finished (offloaded ones: completion observed)
  kOffloadBegin,   // kernel handed to CPE group c
  kOffloadEnd,     // group c's completion flag observed set
  kKernelBegin,    // group c starts computing (spawned)
  kKernelEnd,      // group c done; stamped with its completion time and
                   // recorded at the poll or join that observed it
  kSendPosted,     // b=producing task (-1: old-DW send at step start),
  kSendDone,       //   c=message index in the compiled graph (ExtComm::id)
  kRecvPosted,     // b=consuming task, c=message index
  kRecvDone,
  kReduceBegin,    // b=reduction index in the compiled graph
  kReduceEnd,
  kWaitBegin,      // MPE idle (b=-1), or the synchronous scheduler
  kWaitEnd,        //   spinning on task b's kernel on group c
  kCpeStall,       // injected CPE stall: a zero-length fault span, c=group
  kOffloadFail,    // injected offload failure: a zero-length fault span,
                   //   c=group
  kOffloadRetry,   // retry backoff begins (a fault span): c=attempt
  kBackoffEnd,     // retry backoff charged: c=attempt
};

const char* to_string(FlightKind kind);

/// Layout: 24 bytes of plain data, and a ring slot is exactly one event.
/// `time` is 64 bits. `kind` is the top byte of the 64-bit word that holds
/// `b`, so `b` is 56 bits wide: message seqs, task and reduction indices,
/// candidate counts. `a` (a rank, step, CPE group or restart count) and
/// `c` (a CPE group, message index, attempt, or message bytes below 2 GiB)
/// are 32 bits. record() checks every operand against its width.
class FlightEvent {
 public:
  static constexpr int kBBits = 56;
  static constexpr std::int64_t kBMax = (std::int64_t{1} << (kBBits - 1)) - 1;
  static constexpr std::int64_t kBMin = -kBMax - 1;

  constexpr FlightEvent() = default;
  /// `b` must lie in [kBMin, kBMax].
  constexpr FlightEvent(TimePs time, FlightKind kind, std::int32_t a = 0,
                        std::int64_t b = 0, std::int32_t c = 0)
      : time_(time),
        kind_b_((std::uint64_t{static_cast<std::uint8_t>(kind)} << kBBits) |
                (static_cast<std::uint64_t>(b) & kBMask)),
        a_(a),
        c_(c) {}

  /// Virtual time of the event.
  constexpr TimePs time() const { return time_; }
  constexpr FlightKind kind() const { return static_cast<FlightKind>(kind_b_ >> kBBits); }
  constexpr std::int32_t a() const { return a_; }
  /// The low 56 bits, sign-extended.
  constexpr std::int64_t b() const {
    return static_cast<std::int64_t>(kind_b_ << (64 - kBBits)) >> (64 - kBBits);
  }
  constexpr std::int32_t c() const { return c_; }

 private:
  static constexpr std::uint64_t kBMask = (std::uint64_t{1} << kBBits) - 1;

  TimePs time_ = 0;
  std::uint64_t kind_b_ = 0;  ///< kind << 56 | b's low 56 bits
  std::int32_t a_ = 0;
  std::int32_t c_ = 0;
};
static_assert(sizeof(FlightEvent) == 24, "see the layout comment");

/// A ring event with its position in the ring's recording order.
struct RingEvent {
  std::uint64_t seq = 0;
  FlightEvent event;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// capacity == 0 disables the ring: it keeps nothing and snapshot()
  /// returns nothing. The log (keep_log) is independent of the ring. Not
  /// resizable after construction.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;


  /// Also appends every event to the log (see the file comment).
  void keep_log(bool on) { logging_ = on; }
  /// The events logged since the last clear_log() (none unless keep_log
  /// was on), oldest first.
  std::span<const FlightEvent> log() const { return log_; }
  /// Empties the log, keeping its storage for the next step.
  void clear_log() { log_.clear(); }

  /// Records one event. Single-writer (see file comment). `a` and `c` must
  /// fit in 32 bits and `b` in 56 (FlightEvent's layout); all are checked.
  void record(FlightKind kind, TimePs time, std::int64_t a = 0, std::int64_t b = 0,
              std::int64_t c = 0);

  /// Total events ever recorded into the ring (all but the last capacity
  /// of them have been overwritten once recorded() exceeds the capacity).
  /// A dump-path read, like snapshot().
  std::uint64_t recorded() const { return head_; }

  std::uint64_t dropped() const;

  /// The surviving ring events, oldest first: the last min(recorded(),
  /// capacity) events, numbered up to recorded() - 1. See the concurrency
  /// contract.
  std::vector<RingEvent> snapshot() const;

 private:
  std::vector<FlightEvent> slots_;
  std::uint64_t head_ = 0;  ///< events recorded into the ring so far
  bool logging_ = false;
  std::vector<FlightEvent> log_;
};

}  // namespace usw::obs
