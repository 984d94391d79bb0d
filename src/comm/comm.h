#pragma once

// MPI-like nonblocking message passing between simulated ranks.
//
// This is the substrate under the schedulers: nonblocking sends/receives
// with (source, tag) matching, tested by polling — exactly the operations
// the paper's MPE task scheduler performs (Sec V-C steps 3a/3(b)i/3c) —
// plus tree-based collectives for Uintah's reduction tasks.
//
// Timing semantics (all in virtual time, charged via the Coordinator):
//   * posting a send/receive costs MachineParams::mpi_post_overhead of MPE
//     time; each test costs mpi_test_overhead (nonblocking MPI on Sunway
//     progresses only when the host processor polls, see paper [18]);
//   * each rank's NIC injects one message at a time: a message posted at
//     time S starts on the wire at max(S, link free), occupies the link
//     for bytes / net_bw, and becomes matchable at the receiver
//     net_latency + mpi_sw_latency after its wire time ends. A burst of
//     sends (e.g. all step-start halo messages) therefore serializes on
//     the sender's link, as on real hardware;
//   * ghost-buffer packing time is charged separately by the scheduler via
//     CostModel::mpe_pack, not here.
//
// Progress: nonblocking MPI on Sunway progresses only when the MPE polls,
// and so does this endpoint — nothing moves between calls. A lost send
// is re-posted by the first poll that finds its retransmit deadline
// passed: a test of that request or, while the rank blocks in
// wait/wait_all, the wait loop itself. The wait loop also sleeps no
// later than the retransmit deadline of any lost send outside the waited
// set, so a rank waiting on a reply that depends on its own lost request
// cannot stall in virtual time.
//
// Thread safety: the Network object is shared by all rank threads, but
// only the rank holding the coordinator's token ever touches it — mailbox
// pushes and matches, link reservations and the message sequence counter
// alike. The token handoff (coordinator mutex plus the per-rank wake-up
// semaphore) provides the happens-before edges, so none of it takes a
// lock of its own. CPE worker threads never touch comm state. A Comm must
// only be used from the thread running its rank.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "hw/cost_model.h"
#include "hw/perf_counters.h"
#include "schedpt/schedule.h"
#include "sim/coordinator.h"
#include "support/units.h"

namespace usw::obs {
class FlightRecorder;
}  // namespace usw::obs

namespace usw::comm {

/// Opaque handle to a pending operation. Encodes the slot index plus the
/// epoch of the request table it belongs to, so a handle kept across
/// reset_requests() is detected as stale (test/test_bulk/done/... throw
/// StateError) instead of silently aliasing a fresh request.
using RequestId = std::size_t;

/// In-flight or arrived message.
struct Message {
  int src = -1;
  int dst = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
  TimePs arrival = 0;          ///< virtual time it becomes matchable
  std::uint64_t seq = 0;       ///< global send order, for MPI matching rules
  std::vector<std::byte> payload;  ///< empty in timing-only mode
};

/// Shared mail system: one mailbox per rank.
class Network {
 public:
  Network(int nranks, const hw::CostModel& cost);

  int size() const { return static_cast<int>(mailboxes_.size()); }
  const hw::CostModel& cost() const { return cost_; }

  /// Arms deterministic message faults (msg_delay / msg_loss). The plan
  /// must outlive the network; nullptr disarms. Decisions hash the global
  /// message seq, so they are identical across backends and schedulers.
  void set_fault_plan(const fault::FaultPlan* plan) { fault_ = plan; }
  const fault::FaultPlan* fault_plan() const { return fault_; }

  /// Installs a schedule controller for the kMsgMatch point: which visible
  /// (src, tag) message class a rank's test delivers first. Within a class
  /// send order is always preserved (MPI non-overtaking), and a receive
  /// only ever matches one class, so the permutation cannot change which
  /// request gets which payload — only the delivery interleaving. The
  /// controller must outlive the network; nullptr disarms.
  void set_schedule(schedpt::ScheduleController* schedule) {
    schedule_ = schedule;
  }
  schedpt::ScheduleController* schedule() const { return schedule_; }

  /// Forced-success cap: a message's `attempt` at or beyond this bypasses
  /// the loss roll, so retransmission always terminates.
  static constexpr int kMaxSendAttempts = 8;

  enum class DeliveryStatus { kDelivered, kDelayed, kLost };
  struct Delivery {
    DeliveryStatus status = DeliveryStatus::kDelivered;
    TimePs arrival = 0;  ///< actual matchable time (incl. injected delay)
  };

  /// Deposits a message (called by the sending rank, token held).
  /// `attempt` counts transmissions of this logical message (1-based).
  /// A kLost result means the message was NOT enqueued; the sender owns
  /// retransmission. kDelayed messages are enqueued at the later arrival.
  Delivery deliver(Message msg, int attempt = 1);

  /// `rank`'s incoming messages in seq order: senders deliver, the owner
  /// matches.
  std::vector<Message>& mailbox(int rank) { return mailboxes_[static_cast<std::size_t>(rank)]; }
  const std::vector<Message>& mailbox(int rank) const {
    return mailboxes_[static_cast<std::size_t>(rank)];
  }

  std::uint64_t next_seq() { return seq_++; }

  /// Reserves `src`'s injection link from `post_time` for `bytes`; returns
  /// the time the last byte leaves the NIC.
  TimePs reserve_link(int src, TimePs post_time, std::uint64_t bytes);

 private:
  const hw::CostModel& cost_;
  const fault::FaultPlan* fault_ = nullptr;
  schedpt::ScheduleController* schedule_ = nullptr;
  std::vector<std::vector<Message>> mailboxes_;
  std::vector<TimePs> link_free_;  ///< per-rank NIC free time
  std::uint64_t seq_ = 0;          ///< global send order
};

/// Per-rank endpoint.
class Comm {
 public:
  Comm(Network& net, sim::Coordinator& coord, int rank,
       hw::PerfCounters* counters = nullptr);
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const { return net_.size(); }
  TimePs now() const { return coord_.now(rank_); }
  const Network& net() const { return net_; }

  /// Sleeps (virtual time) until `wake`, or earlier if a message for this
  /// rank arrives first. kNever waits purely on arrivals.
  void wait_until_time(TimePs wake) { coord_.wait_until(rank_, wake); }

  /// Charges local MPE time (used by schedulers for their own overheads).
  void advance(TimePs dt) { coord_.advance(rank_, dt); }

  /// Nonblocking send with payload (functional mode). The data is copied
  /// at post time (eager protocol).
  RequestId isend(int dst, int tag, std::span<const std::byte> data);

  /// Move-in overload: takes ownership of the packed buffer, avoiding the
  /// span copy on the hot halo path.
  RequestId isend(int dst, int tag, std::vector<std::byte>&& data);

  /// Nonblocking send of `bytes` without payload (timing-only mode).
  RequestId isend_bytes(int dst, int tag, std::uint64_t bytes);

  /// Nonblocking receive matching (src, tag).
  RequestId irecv(int src, int tag);

  /// Tests one request. Gates on virtual time (this observes shared
  /// state) and charges one mpi_test_overhead.
  bool test(RequestId id);

  /// Bulk test (MPI_Testsome): gates once, charges mpi_test_overhead plus
  /// mpi_test_each per listed request, and returns how many of `ids` are
  /// now complete. Much cheaper in MPE time than testing one by one.
  std::size_t test_bulk(std::span<const RequestId> ids);

  /// True if the request completed on a previous test (no time charged,
  /// no gating — pure local lookup).
  bool done(RequestId id) const;

  /// Blocks (in virtual time) until the request completes.
  void wait(RequestId id);

  /// Blocks until all listed requests complete. Under loss injection the
  /// wait also re-posts lost sends OUTSIDE `ids` once their retransmit
  /// deadline passes, waking for it if need be: a rank blocked on a reply
  /// that depends on its own lost request must not stall.
  void wait_all(std::span<const RequestId> ids);

  /// Payload of a completed receive (moves it out). Empty in timing-only.
  std::vector<std::byte> take_payload(RequestId id);

  /// Earliest locally-known future completion among `ids` (send completion
  /// stamps and already-arrived-but-future matchable messages); kNever if
  /// none. Used by schedulers to sleep precisely while idle.
  TimePs earliest_known_completion(std::span<const RequestId> ids) const;

  // ---- Collectives (must be called by all ranks in the same order) ----
  double allreduce_sum(double value);
  double allreduce_min(double value);
  double allreduce_max(double value);
  void barrier();

  /// Releases completed request slots (call between timesteps). Any
  /// RequestId issued before this call becomes stale: using it afterwards
  /// throws StateError.
  void reset_requests();

  /// Number of posted-but-incomplete requests (test hygiene).
  std::size_t pending_requests() const;

  /// Wires a flight recorder; send/match/loss/retransmit events are logged
  /// into it (timing side-effect free). nullptr disables.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  /// Enables/disables loss-timeout retransmission (default on). With it
  /// off a lost send never completes: the sender's wake time becomes
  /// kNever, so an all-lost exchange turns into a detectable virtual-time
  /// deadlock instead of silently recovering — the knob the diagnostics
  /// smoke tests use to induce a hang on purpose.
  void set_retransmit(bool on) { retransmit_ = on; }
  bool retransmit_enabled() const { return retransmit_; }

  /// One posted-but-incomplete request, for diagnostic dumps.
  struct PendingInfo {
    bool send = false;
    int peer = -1;
    int tag = -1;
    std::uint64_t bytes = 0;
    TimePs stamp = 0;  ///< sends: completion/retransmit deadline; recvs: 0
    bool lost = false;
    int attempts = 0;
    std::uint64_t msg_seq = 0;
    std::size_t epoch = 0;
  };

  /// Snapshot of pending requests with epochs. Pure local read: touches no
  /// shared state and never calls into the Coordinator, so it is safe from
  /// a crash-dump source while this rank is parked.
  std::vector<PendingInfo> pending_details() const;

  hw::PerfCounters* counters() { return counters_; }

 private:
  enum class Kind : std::uint8_t { kSend, kRecv };

  struct Request {
    Kind kind = Kind::kSend;
    int peer = -1;
    int tag = -1;
    std::uint64_t bytes = 0;
    /// Sends: injection done (or, while `lost`, the retransmit deadline);
    /// recvs: arrival.
    TimePs complete_stamp = 0;
    bool done = false;
    bool lost = false;      ///< send dropped by fault injection, not yet resent
    int attempts = 0;       ///< transmissions so far (sends under faults)
    std::uint64_t msg_seq = 0;  ///< wire seq, reused verbatim on retransmit
    std::vector<std::byte> payload;  ///< recv data; sends: retransmit copy
  };

  /// Posts one wire message now.
  RequestId post_send(int dst, int tag, std::uint64_t bytes,
                      std::vector<std::byte> payload);

  /// Decodes and validates a RequestId; throws StateError if it is from a
  /// released table (epoch mismatch after reset_requests) or out of range.
  Request& checked(RequestId id);
  const Request& checked(RequestId id) const;
  RequestId make_id(std::size_t index) const;

  /// Timeout after which a (possibly lost) send is retransmitted, derived
  /// from the cost model: a small multiple of the message's end-to-end
  /// transfer time, as a real runtime would configure from link specs.
  TimePs retransmit_timeout(std::uint64_t bytes) const;

  /// If `req` is a lost send whose retransmit deadline has passed, resend
  /// it (charging post overhead + link occupancy in virtual time).
  void maybe_retransmit(Request& req);

  /// True when the fault plan can drop messages (sends keep a retransmit
  /// copy).
  bool loss_armed() const;

  /// wait_all's guard against the retransmit stall: re-posts every lost
  /// send outside `ids` whose deadline has passed and returns the earliest
  /// remaining such deadline (kNever if none, or loss injection is off).
  TimePs drive_unwaited_sends(std::span<const RequestId> ids);

  /// Matches visible mailbox messages against pending receives, respecting
  /// MPI ordering (message send order vs. receive post order).
  void match_visible();

  double allreduce(double value, int op);  // 0=sum 1=min 2=max

  Network& net_;
  sim::Coordinator& coord_;
  int rank_;
  hw::PerfCounters* counters_;
  obs::FlightRecorder* flight_ = nullptr;
  bool retransmit_ = true;
  std::vector<Request> requests_;
  std::size_t epoch_ = 0;  ///< bumped by reset_requests; stamps RequestIds
  std::uint32_t coll_seq_ = 0;
  /// Payload buffers received in collectives, reused by the next sends.
  std::vector<std::vector<std::byte>> coll_buffers_;
  std::vector<char> match_consumed_;  ///< match_visible scratch
  std::vector<char> waited_;          ///< drive_unwaited_sends scratch
  std::vector<std::pair<int, int>> match_classes_;  ///< match_visible scratch
};

}  // namespace usw::comm
