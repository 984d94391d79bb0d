// Tests for the MPI-like communication substrate: matching, ordering,
// payload integrity, timing semantics, collectives, and determinism.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "fault/fault.h"
#include "obs/flight.h"
#include "sim/coordinator.h"
#include "support/test_helpers.h"

using usw::test::bytes_of;
using usw::test::str_of;

namespace usw::comm {
namespace {

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

/// Runs `body(comm, rank)` across `n` simulated ranks, collecting per-rank
/// counters into `counters` (sized to n) when it is non-null.
template <typename Fn>
void with_ranks(int n, Fn&& body,
                std::vector<hw::PerfCounters>* counters = nullptr) {
  const hw::CostModel cost(machine());
  Network net(n, cost);
  if (counters != nullptr)
    counters->assign(static_cast<std::size_t>(n), hw::PerfCounters{});
  sim::run_ranks(n, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank,
              counters != nullptr
                  ? &(*counters)[static_cast<std::size_t>(rank)]
                  : nullptr);
    body(comm, rank);
  });
}

TEST(Comm, SendRecvPayloadRoundtrip) {
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      const RequestId s = comm.isend(1, 7, bytes_of("hello sunway"));
      comm.wait(s);
    } else {
      const RequestId r = comm.irecv(0, 7);
      comm.wait(r);
      const auto payload = comm.take_payload(r);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(payload.data()),
                            payload.size()),
                "hello sunway");
    }
  });
}

TEST(Comm, ArrivalRespectsLatencyAndBandwidth) {
  const hw::CostModel cost(machine());
  const std::uint64_t bytes = 1024 * 1024;
  with_ranks(2, [&](Comm& comm, int rank) {
    if (rank == 0) {
      comm.isend_bytes(1, 1, bytes);
    } else {
      const RequestId r = comm.irecv(0, 1);
      comm.wait(r);
      // The receiver cannot see the message before wire latency + transfer.
      EXPECT_GE(comm.now(), cost.message_transfer(bytes));
    }
  });
}

TEST(Comm, TagsDoNotCrossMatch) {
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      comm.isend(1, 5, bytes_of("five"));
      comm.isend(1, 6, bytes_of("six6"));
    } else {
      // Post in the opposite order of sending: matching is by tag.
      const RequestId r6 = comm.irecv(0, 6);
      const RequestId r5 = comm.irecv(0, 5);
      comm.wait(r6);
      comm.wait(r5);
      const auto p6 = comm.take_payload(r6);
      EXPECT_EQ(std::memcmp(p6.data(), "six6", 4), 0);
      const auto p5 = comm.take_payload(r5);
      EXPECT_EQ(std::memcmp(p5.data(), "five", 4), 0);
    }
  });
}

TEST(Comm, SameTagPreservesSendOrder) {
  // MPI non-overtaking: two messages with the same (src, tag) must match
  // receives in posted order.
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      comm.isend(1, 3, bytes_of("first"));
      comm.isend(1, 3, bytes_of("secnd"));
    } else {
      const RequestId a = comm.irecv(0, 3);
      const RequestId b = comm.irecv(0, 3);
      const RequestId ids[] = {a, b};
      comm.wait_all(ids);
      EXPECT_EQ(std::memcmp(comm.take_payload(a).data(), "first", 5), 0);
      EXPECT_EQ(std::memcmp(comm.take_payload(b).data(), "secnd", 5), 0);
    }
  });
}

TEST(Comm, UnexpectedMessageBuffersUntilRecvPosted) {
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      comm.isend(1, 9, bytes_of("early"));
      comm.allreduce_sum(0.0);
    } else {
      comm.allreduce_sum(0.0);  // message likely delivered before the recv exists
      const RequestId r = comm.irecv(0, 9);
      comm.wait(r);
      EXPECT_EQ(std::memcmp(comm.take_payload(r).data(), "early", 5), 0);
    }
  });
}

TEST(Comm, TestDoesNotBlockAndEventuallySucceeds) {
  std::vector<hw::PerfCounters> counters;
  with_ranks(
      2,
      [](Comm& comm, int rank) {
        if (rank == 0) {
          comm.advance(50 * kMicrosecond);
          comm.isend_bytes(1, 2, 64);
        } else {
          const RequestId r = comm.irecv(0, 2);
          EXPECT_FALSE(comm.test(r));  // nothing sent yet at our virtual time
          comm.wait(r);
          EXPECT_TRUE(comm.done(r));
        }
      },
      &counters);
  EXPECT_EQ(counters[1].bytes_received, 64u);
}

// match_visible compacts consumed messages out of the mailbox in one
// order-preserving pass: consuming messages from the middle of a large
// mailbox must keep the survivors in send order.
TEST(Comm, ManyPendingMessagesMatchInOrderAfterPartialConsumption) {
  constexpr int kMsgs = 64;
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      // Interleave two tags so matching one tag consumes from the middle
      // of the visible box repeatedly.
      for (int i = 0; i < kMsgs; ++i) {
        comm.isend(1, 1, bytes_of("odd" + std::to_string(i)));
        comm.isend(1, 2, bytes_of("evn" + std::to_string(i)));
      }
      comm.allreduce_sum(0.0);
    } else {
      comm.allreduce_sum(0.0);  // everything is already in the mailbox
      // Drain tag 2 first (consuming every other message), then tag 1;
      // both must come out in send order.
      for (int i = 0; i < kMsgs; ++i) {
        const RequestId r = comm.irecv(0, 2);
        comm.wait(r);
        EXPECT_EQ(str_of(comm.take_payload(r)), "evn" + std::to_string(i));
      }
      for (int i = 0; i < kMsgs; ++i) {
        const RequestId r = comm.irecv(0, 1);
        comm.wait(r);
        EXPECT_EQ(str_of(comm.take_payload(r)), "odd" + std::to_string(i));
      }
    }
  });
}

TEST(Comm, TestBulkCompletesManyAtOnce) {
  constexpr int kN = 16;
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      for (int i = 0; i < kN; ++i) comm.isend_bytes(1, 100 + i, 32);
    } else {
      std::vector<RequestId> ids;
      for (int i = 0; i < kN; ++i) ids.push_back(comm.irecv(0, 100 + i));
      comm.wait_all(ids);
      EXPECT_EQ(comm.test_bulk(ids), static_cast<std::size_t>(kN));
      EXPECT_EQ(comm.pending_requests(), 0u);
    }
  });
}

TEST(Comm, EarliestKnownCompletionSeesArrivedMessages) {
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      comm.isend_bytes(1, 4, 1024);
      comm.allreduce_sum(0.0);
    } else {
      comm.allreduce_sum(0.0);  // ensures the message is physically in the mailbox
      const RequestId r = comm.irecv(0, 4);
      const RequestId ids[] = {r};
      // Whether or not the arrival stamp is in our past, the wake time of
      // a physically-arrived matching message must be finite.
      EXPECT_NE(comm.earliest_known_completion(ids), sim::kNever);
      comm.wait(r);
    }
  });
}

TEST(Comm, SelfSendAborts) {
  with_ranks(1, [](Comm& comm, int rank) {
    (void)rank;
    EXPECT_DEATH(comm.isend_bytes(0, 1, 8), "self-send");
  });
}

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, AllreduceSum) {
  const int n = GetParam();
  with_ranks(n, [n](Comm& comm, int rank) {
    const double v = comm.allreduce_sum(static_cast<double>(rank + 1));
    EXPECT_DOUBLE_EQ(v, n * (n + 1) / 2.0);
  });
}

TEST_P(CollectiveTest, AllreduceMinMax) {
  const int n = GetParam();
  with_ranks(n, [n](Comm& comm, int rank) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(rank)),
                     static_cast<double>(n - 1));
    // The minimum of the ranks, as the max of their negations.
    EXPECT_DOUBLE_EQ(-comm.allreduce_max(-static_cast<double>(rank)), 0.0);
  });
}

TEST_P(CollectiveTest, BarrierLeavesNoPendingRequests) {
  // An allreduce is a barrier: no rank leaves it before every rank enters.
  with_ranks(GetParam(), [](Comm& comm, int) {
    comm.allreduce_sum(0.0);
    comm.allreduce_sum(0.0);
    EXPECT_EQ(comm.pending_requests(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Comm, BackToBackCollectivesStayAligned) {
  with_ranks(4, [](Comm& comm, int rank) {
    for (int i = 0; i < 10; ++i) {
      const double v = comm.allreduce_sum(static_cast<double>(rank));
      EXPECT_DOUBLE_EQ(v, 6.0);
    }
  });
}

TEST(Comm, DeterministicTimings) {
  auto run_once = [] {
    std::vector<TimePs> finals(4);
    with_ranks(4, [&finals](Comm& comm, int rank) {
      for (int step = 0; step < 5; ++step) {
        const int peer = rank ^ 1;
        const RequestId s = comm.isend_bytes(peer, step, 4096);
        const RequestId r = comm.irecv(peer, step);
        comm.wait(s);
        comm.wait(r);
        (void)comm.allreduce_sum(1.0);
      }
      finals[static_cast<std::size_t>(rank)] = comm.now();
    });
    return finals;
  };
  EXPECT_EQ(run_once(), run_once());
}

// A send of any size costs the sender exactly one mpi_post_overhead and
// counts one post on each side (512 B and 1 MiB straddle the ~42 KB size
// at which MPI stacks usually switch protocols).
TEST(Comm, CountersTrackTraffic) {
  const hw::CostModel cost(machine());
  for (const std::uint64_t bytes :
       {std::uint64_t{512}, std::uint64_t{1000}, std::uint64_t{1} << 20}) {
    std::vector<hw::PerfCounters> c;
    TimePs post_cost = -1;
    with_ranks(
        2,
        [&](Comm& comm, int rank) {
          if (rank == 0) {
            const TimePs before = comm.now();
            const RequestId s = comm.isend_bytes(1, 1, bytes);
            post_cost = comm.now() - before;
            comm.wait(s);
          } else {
            comm.wait(comm.irecv(0, 1));
          }
        },
        &c);
    EXPECT_EQ(post_cost, cost.mpi_post_overhead()) << bytes << " B";
    EXPECT_EQ(c[0].messages_sent, 1u) << bytes << " B";
    EXPECT_EQ(c[0].bytes_sent, bytes) << bytes << " B";
    EXPECT_EQ(c[0].mpi_posts, 1u) << bytes << " B";
    EXPECT_EQ(c[1].messages_received, 1u) << bytes << " B";
    EXPECT_EQ(c[1].bytes_received, bytes) << bytes << " B";
    EXPECT_EQ(c[1].mpi_posts, 1u) << bytes << " B";
    EXPECT_GT(c[0].comm_time, 0) << bytes << " B";
  }
}

}  // namespace
}  // namespace usw::comm

namespace usw::comm {
namespace {

TEST(Comm, SenderNicSerializesBurstsOfSends) {
  // Two back-to-back 1 MB sends from the same rank must arrive roughly one
  // wire time apart: the NIC injects one message at a time.
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  const std::uint64_t bytes = 1024 * 1024;
  const TimePs wire = seconds_to_ps(static_cast<double>(bytes) /
                                    cost.params().net_bw_bytes_per_s);
  Network net(2, cost);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank);
    if (rank == 0) {
      comm.isend_bytes(1, 1, bytes);
      comm.isend_bytes(1, 2, bytes);
    } else {
      const RequestId a = comm.irecv(0, 1);
      const RequestId b = comm.irecv(0, 2);
      comm.wait(a);
      const TimePs t_first = comm.now();
      comm.wait(b);
      const TimePs t_second = comm.now();
      // Allow for the receiver's own test/post costs, but the second
      // message cannot arrive sooner than a full extra wire time minus
      // small software costs.
      EXPECT_GE(t_second - t_first, wire - 100 * kMicrosecond);
    }
  });
}

TEST(Comm, StaleRequestIdThrowsAfterReset) {
  // reset_requests releases the table; every RequestId issued before it is
  // stale and must be rejected loudly (StateError), not silently resolve to
  // a recycled slot — the bug class this contract exists to kill.
  with_ranks(2, [](Comm& comm, int rank) {
    if (rank == 0) {
      const RequestId s = comm.isend(1, 3, bytes_of("data"));
      comm.wait(s);
      comm.reset_requests();
      EXPECT_THROW(comm.test(s), StateError);
      EXPECT_THROW(comm.done(s), StateError);
      EXPECT_THROW(comm.take_payload(s), StateError);
      const RequestId ids[] = {s};
      EXPECT_THROW(comm.test_bulk(ids), StateError);
      EXPECT_THROW(comm.earliest_known_completion(ids), StateError);
      // Requests posted after the reset mint ids of the new epoch and work.
      const RequestId s2 = comm.isend(1, 4, bytes_of("more"));
      comm.wait(s2);
    } else {
      const RequestId r = comm.irecv(0, 3);
      comm.wait(r);
      (void)comm.take_payload(r);
      const RequestId r2 = comm.irecv(0, 4);
      comm.wait(r2);
    }
  });
}

TEST(Comm, OutOfRangeRequestIdThrows) {
  with_ranks(1, [](Comm& comm, int) {
    EXPECT_THROW(comm.test(RequestId{0}), StateError);
    EXPECT_THROW(comm.done(RequestId{12345}), StateError);
    const RequestId ids[] = {RequestId{2}};
    EXPECT_THROW(comm.test_bulk(ids), StateError);
  });
}

TEST(Comm, DistinctSendersDoNotSerializeOnEachOther) {
  // The NIC is per rank: messages from two different senders to one
  // receiver may overlap on the wire.
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  const std::uint64_t bytes = 4 * 1024 * 1024;
  Network net(3, cost);
  std::vector<TimePs> arrival(3, 0);
  sim::run_ranks(3, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank);
    if (rank != 2) {
      comm.isend_bytes(2, rank, bytes);
    } else {
      const RequestId a = comm.irecv(0, 0);
      const RequestId b = comm.irecv(1, 1);
      const RequestId ids[] = {a, b};
      comm.wait_all(ids);
      arrival[2] = comm.now();
    }
  });
  // Both messages fit in ~one wire time + overheads, not two.
  const TimePs wire = seconds_to_ps(static_cast<double>(bytes) /
                                    cost.params().net_bw_bytes_per_s);
  EXPECT_LT(arrival[2], wire + wire / 2);
}

/// Runs `body(comm, rank)` across `n` ranks on a network that drops every
/// attempt until the forced-success cap lets one through, and returns the
/// per-rank counters.
template <typename Fn>
std::vector<hw::PerfCounters> with_lossy_ranks(int n, std::uint64_t seed,
                                               Fn&& body) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("msg_loss:p=1", seed);
  const hw::CostModel cost(machine());
  Network net(n, cost);
  net.set_fault_plan(&plan);
  std::vector<hw::PerfCounters> counters(static_cast<std::size_t>(n));
  sim::run_ranks(n, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank, &counters[static_cast<std::size_t>(rank)]);
    body(comm, rank);
  });
  return counters;
}

// Every lost send retransmits kMaxSendAttempts - 1 times before one
// attempt gets through.
constexpr std::uint64_t kRetriesPerLostSend = Network::kMaxSendAttempts - 1;

// The retransmit stall. Rank 0's request is lost on the wire and rank 0
// never tests it: it waits on the reply instead, which rank 1 only sends
// once the request has arrived. The wait must wake at the lost send's
// retransmit deadline and post it again.
TEST(CommRetransmit, LostUntestedSendRecovers) {
  const std::vector<hw::PerfCounters> counters =
      with_lossy_ranks(2, 3, [](Comm& comm, int rank) {
        if (rank == 0) {
          comm.isend(1, 1, bytes_of("request"));  // never tested or waited
          const RequestId reply = comm.irecv(1, 2);
          comm.wait(reply);
          EXPECT_EQ(str_of(comm.take_payload(reply)), "reply");
        } else {
          const RequestId r = comm.irecv(0, 1);
          comm.wait(r);
          EXPECT_EQ(str_of(comm.take_payload(r)), "request");
          const RequestId s = comm.isend(0, 2, bytes_of("reply"));
          comm.wait(s);  // its own test drives these retransmits
        }
      });
  // Rank 0 posted its request again after every lost attempt.
  EXPECT_EQ(counters[0].fault_retries, kRetriesPerLostSend);
}

// Several lost sends, none of them waited: rank 0 asks ranks 1 and 2 and
// waits on both replies at once. The wait must wake at the earlier of the
// two retransmit deadlines and keep driving both requests until each is
// through.
TEST(CommRetransmit, SeveralLostUntestedSendsRecover) {
  const std::vector<hw::PerfCounters> counters =
      with_lossy_ranks(3, 3, [](Comm& comm, int rank) {
        if (rank == 0) {
          comm.isend(1, 1, bytes_of("request1"));
          comm.isend(2, 1, bytes_of("request2"));
          const RequestId replies[] = {comm.irecv(1, 2), comm.irecv(2, 2)};
          comm.wait_all(replies);
          EXPECT_EQ(str_of(comm.take_payload(replies[0])), "reply1");
          EXPECT_EQ(str_of(comm.take_payload(replies[1])), "reply2");
        } else {
          const RequestId r = comm.irecv(0, 1);
          comm.wait(r);
          EXPECT_EQ(str_of(comm.take_payload(r)),
                    "request" + std::to_string(rank));
          const RequestId s =
              comm.isend(0, 2, bytes_of("reply" + std::to_string(rank)));
          comm.wait(s);
        }
      });
  EXPECT_EQ(counters[0].fault_retries, 2 * kRetriesPerLostSend);
}

// A retransmit reuses its lost first transmission's seq, so it must land
// in the mailbox ahead of the later-seq message that overtook it on the
// wire. Rank 0's first message is lost and its second is not; rank 1 polls
// only after the retransmit has arrived behind the second, and its two
// receives on the one (src, tag) class must still match in send order.
TEST(CommRetransmit, RetransmitBehindLaterSeqStillMatchesInSeqOrder) {
  // A seed whose plan drops seq 0's first attempt and nothing else here.
  std::uint64_t seed = 1;
  auto plan = fault::FaultPlan::parse("msg_loss:p=0.5", seed);
  while (!plan.msg_lost(0, 1) || plan.msg_lost(1, 1) || plan.msg_lost(0, 2))
    plan = fault::FaultPlan::parse("msg_loss:p=0.5", ++seed);
  const hw::CostModel cost(machine());
  Network net(2, cost);
  net.set_fault_plan(&plan);
  std::vector<hw::PerfCounters> counters(2);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank, &counters[static_cast<std::size_t>(rank)]);
    if (rank == 0) {
      const RequestId first = comm.isend(1, 4, bytes_of("first"));
      const RequestId second = comm.isend(1, 4, bytes_of("second"));
      comm.wait(first);  // re-posts it at its retransmit deadline
      comm.wait(second);
    } else {
      comm.advance(kSecond);  // long after the retransmit arrived
      const RequestId r1 = comm.irecv(0, 4);
      const RequestId r2 = comm.irecv(0, 4);
      const RequestId both[] = {r1, r2};
      comm.wait_all(both);
      EXPECT_EQ(str_of(comm.take_payload(r1)), "first");
      EXPECT_EQ(str_of(comm.take_payload(r2)), "second");
    }
  });
  EXPECT_EQ(counters[0].fault_retries, 1u);
}

// Each message fault the counters count leaves exactly one flight event,
// msg_lost or msg_delayed, on the first transmission and on every
// retransmit alike. Every attempt that is not lost is delayed here.
TEST(CommRetransmit, EachCountedMessageFaultLeavesOneFlightEvent) {
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("msg_loss:p=0.5,msg_delay:p=1:factor=4", 1);
  const hw::CostModel cost(machine());
  Network net(2, cost);
  net.set_fault_plan(&plan);
  std::vector<hw::PerfCounters> counters(2);
  std::vector<std::uint64_t> events(2, 0);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    const auto r = static_cast<std::size_t>(rank);
    obs::FlightRecorder ring(4096);
    Comm comm(net, coord, rank, &counters[r]);
    comm.set_flight(&ring);
    for (int i = 0; i < 16; ++i) {
      const RequestId both[] = {comm.isend(1 - rank, i, bytes_of("payload")),
                                comm.irecv(1 - rank, i)};
      comm.wait_all(both);
    }
    for (const obs::RingEvent& e : ring.snapshot())
      if (e.event.kind() == obs::FlightKind::kMsgLost ||
          e.event.kind() == obs::FlightKind::kMsgDelayed)
        ++events[r];
  });
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_GT(counters[r].fault_retries, 0u) << "rank " << r;
    EXPECT_EQ(events[r], counters[r].fault_injected) << "rank " << r;
  }
}

}  // namespace
}  // namespace usw::comm
