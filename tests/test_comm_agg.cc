// Tests for the message aggregation / coalescing layer and the eager-
// rendezvous protocol split (comm/agg.h, --comm-agg): spec parsing, wire
// packing and unpacking, ordering and progress guarantees, counter
// accounting, fault shared fate, and the central claim that numerics are
// bit-equal with aggregation on or off.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "comm/agg.h"
#include "comm/comm.h"
#include "fault/fault.h"
#include "hw/perf_counters.h"
#include "runtime/controller.h"
#include "sim/coordinator.h"
#include "support/error.h"
#include "support/test_helpers.h"

using usw::test::bytes_of;
using usw::test::slurp_tree;
using usw::test::str_of;

namespace usw::comm {
namespace {

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

/// Runs `body(comm, rank)` across `n` simulated ranks with aggregation
/// `spec` installed and per-rank counters collected into `counters`
/// (sized to n when non-null).
template <typename Fn>
void with_agg_ranks(int n, const AggSpec& spec, Fn&& body,
                    std::vector<hw::PerfCounters>* counters = nullptr) {
  const hw::CostModel cost(machine());
  Network net(n, cost);
  if (counters != nullptr) counters->assign(n, hw::PerfCounters{});
  sim::run_ranks(n, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank,
              counters != nullptr ? &(*counters)[rank] : nullptr);
    comm.set_agg(spec);
    body(comm, rank);
  });
}

// ---------------------------------------------------------------------------
// AggSpec parsing.

TEST(AggSpec, ParsesOffAndDefaults) {
  EXPECT_FALSE(AggSpec::parse("off").enabled);
  EXPECT_FALSE(AggSpec::parse("").enabled);
  const AggSpec on = AggSpec::parse("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.max_bytes, 16u * 1024);
  EXPECT_EQ(on.max_count, 64);
  EXPECT_EQ(on.rdv_bytes, -1);  // threshold from the cost model
}

TEST(AggSpec, ParsesSizeCountAndSuffixes) {
  const AggSpec a = AggSpec::parse("size=4k,count=8");
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.max_bytes, 4096u);
  EXPECT_EQ(a.max_count, 8);
  const AggSpec b = AggSpec::parse("size=1m,count=2,rdv=64k");
  EXPECT_EQ(b.max_bytes, 1024u * 1024);
  EXPECT_EQ(b.rdv_bytes, 64 * 1024);
  EXPECT_NE(b.describe().find("rdv"), std::string::npos);
}

TEST(AggSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(AggSpec::parse("size="), ConfigError);
  EXPECT_THROW(AggSpec::parse("size=4k,count=banana"), ConfigError);
  EXPECT_THROW(AggSpec::parse("blah=1"), ConfigError);
  EXPECT_THROW(AggSpec::parse("size=1,count=4"), ConfigError);   // < 64 B
  EXPECT_THROW(AggSpec::parse("size=4k,count=0"), ConfigError);
  EXPECT_THROW(AggSpec::parse("size=4k,count=9999"), ConfigError);
}

// ---------------------------------------------------------------------------
// Packing mechanics.

TEST(CommAgg, SingleMessageAggregateRoundtrips) {
  std::vector<hw::PerfCounters> counters;
  with_agg_ranks(
      2, AggSpec::parse("on"),
      [](Comm& comm, int rank) {
        if (rank == 0) {
          const RequestId s = comm.isend(1, 7, bytes_of("lone message"));
          comm.wait(s);  // test() flushes the open buffer first
        } else {
          const RequestId r = comm.irecv(0, 7);
          comm.wait(r);
          EXPECT_EQ(str_of(comm.take_payload(r)), "lone message");
        }
      },
      &counters);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_EQ(sum.agg_msgs_packed, 1u);
  EXPECT_EQ(sum.agg_flushes, 1u);
  // A one-message aggregate pays a sub-header without sharing an
  // envelope: bytes_saved goes negative, and the counter must say so.
  EXPECT_LT(sum.agg_bytes_saved, 0);
}

TEST(CommAgg, CoalescedBurstArrivesInOrderAcrossTags) {
  // Several same-destination sends below the flush thresholds travel as
  // one wire message and must unpack into per-(src,tag) sub-messages
  // that match exactly like individually posted sends.
  std::vector<hw::PerfCounters> counters;
  with_agg_ranks(
      2, AggSpec::parse("size=16k,count=64"),
      [](Comm& comm, int rank) {
        if (rank == 0) {
          comm.isend(1, 3, bytes_of("a0"));
          comm.isend(1, 4, bytes_of("b0"));
          comm.isend(1, 3, bytes_of("a1"));
          comm.isend(1, 4, bytes_of("b1"));
          comm.flush_sends();
        } else {
          // Post receives in a different order than the sends.
          const RequestId b1 = comm.irecv(0, 4);
          const RequestId a0 = comm.irecv(0, 3);
          const RequestId a1 = comm.irecv(0, 3);
          const RequestId b0 = comm.irecv(0, 4);
          const RequestId ids[] = {b1, a0, a1, b0};
          comm.wait_all(ids);
          // Non-overtaking per (src, tag): first-posted recv gets the
          // first-sent payload of its tag.
          EXPECT_EQ(str_of(comm.take_payload(b1)), "b0");
          EXPECT_EQ(str_of(comm.take_payload(b0)), "b1");
          EXPECT_EQ(str_of(comm.take_payload(a0)), "a0");
          EXPECT_EQ(str_of(comm.take_payload(a1)), "a1");
        }
      },
      &counters);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_EQ(sum.agg_msgs_packed, 4u);
  EXPECT_EQ(sum.agg_flushes, 1u);  // one wire message for the burst
  EXPECT_GT(sum.agg_bytes_saved, 0);
}

TEST(CommAgg, CountPolicyFlushesEagerly) {
  std::vector<hw::PerfCounters> counters;
  with_agg_ranks(
      2, AggSpec::parse("size=16k,count=2"),
      [](Comm& comm, int rank) {
        if (rank == 0) {
          std::vector<RequestId> ids;
          for (int i = 0; i < 6; ++i)
            ids.push_back(comm.isend(1, 1, bytes_of("m" + std::to_string(i))));
          comm.wait_all(ids);
        } else {
          for (int i = 0; i < 6; ++i) {
            const RequestId r = comm.irecv(0, 1);
            comm.wait(r);
            EXPECT_EQ(str_of(comm.take_payload(r)), "m" + std::to_string(i));
          }
        }
      },
      &counters);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_EQ(sum.agg_msgs_packed, 6u);
  EXPECT_EQ(sum.agg_flushes, 3u);  // count=2 closes a buffer per pair
}

TEST(CommAgg, MixedEagerRendezvousBurst) {
  // With a tiny explicit rendezvous threshold, large sends bypass the
  // coalescing buffer (flushing it first to keep wire order) while small
  // ones still pack. Everything must arrive with intact payloads.
  std::vector<hw::PerfCounters> counters;
  with_agg_ranks(
      2, AggSpec::parse("size=16k,count=64,rdv=256"),
      [](Comm& comm, int rank) {
        const std::string big(512, 'R');
        if (rank == 0) {
          comm.isend(1, 1, bytes_of("small-1"));
          comm.isend(1, 2, bytes_of(big));  // rendezvous, flushes small-1
          comm.isend(1, 3, bytes_of("small-2"));
          comm.flush_sends();
        } else {
          const RequestId r1 = comm.irecv(0, 1);
          const RequestId r2 = comm.irecv(0, 2);
          const RequestId r3 = comm.irecv(0, 3);
          const RequestId ids[] = {r1, r2, r3};
          comm.wait_all(ids);
          EXPECT_EQ(str_of(comm.take_payload(r1)), "small-1");
          EXPECT_EQ(str_of(comm.take_payload(r2)), big);
          EXPECT_EQ(str_of(comm.take_payload(r3)), "small-2");
        }
      },
      &counters);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_EQ(sum.msgs_rendezvous, 1u);
  EXPECT_EQ(sum.agg_msgs_packed, 2u);
}

// A burst to several neighbors leaves one open buffer per destination.
// flush_sends posts one aggregate for each, in ascending destination
// order whatever order they were opened in. The sender's NIC serializes
// the aggregates, so each receiver's wake time shows where its aggregate
// went on the link.
TEST(CommAgg, FlushSendsCoalescesBurstInDestinationOrder) {
  std::vector<hw::PerfCounters> counters;
  std::vector<TimePs> woke(4, 0);
  with_agg_ranks(
      4, AggSpec::parse("on"),
      [&woke](Comm& comm, int rank) {
        if (rank == 0) {
          // Start late, so every receiver is already parked on its recvs.
          comm.advance(100 * kMicrosecond);
          for (int dst : {3, 1, 2, 1, 3})
            comm.isend(dst, 5, bytes_of("to" + std::to_string(dst)));
          comm.flush_sends();
        } else {
          std::vector<RequestId> ids;
          for (int i = 0; i < (rank == 2 ? 1 : 2); ++i)
            ids.push_back(comm.irecv(0, 5));
          comm.wait_all(ids);
          woke[static_cast<std::size_t>(rank)] = comm.now();
          for (const RequestId r : ids)
            EXPECT_EQ(str_of(comm.take_payload(r)),
                      "to" + std::to_string(rank));
        }
      },
      &counters);
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_EQ(sum.agg_msgs_packed, 5u);
  EXPECT_EQ(sum.agg_flushes, 3u);  // one aggregate per destination
  EXPECT_LT(woke[1], woke[2]);
  EXPECT_LT(woke[2], woke[3]);
}

TEST(CommAgg, ResetRequestsFlushesOpenBuffers) {
  // A buffered send completes at append time (MPI_Bsend semantics); the
  // sender may reset its request table before the flush happened. The
  // reset must push the buffered data onto the wire, not strand it.
  with_agg_ranks(2, AggSpec::parse("on"), [](Comm& comm, int rank) {
    if (rank == 0) {
      const RequestId s = comm.isend(1, 9, bytes_of("pre-reset"));
      EXPECT_TRUE(comm.test(s));  // buffered: complete immediately
      comm.reset_requests();
      comm.barrier();
    } else {
      const RequestId r = comm.irecv(0, 9);
      comm.wait(r);
      EXPECT_EQ(str_of(comm.take_payload(r)), "pre-reset");
      comm.reset_requests();
      comm.barrier();
    }
  });
}

// A reset flushes every open buffer, whatever order the destinations were
// opened in, and leaves none listed: a buffer opened after the reset goes
// out with the next flush on its own. (The CommProgress name dates from
// when a deadline-driven progress engine could also hold these buffers.)
TEST(CommProgress, ResetRequestsFlushesEngineBufferedAggregates) {
  std::vector<hw::PerfCounters> counters;
  with_agg_ranks(
      4, AggSpec::parse("on"),
      [](Comm& comm, int rank) {
        if (rank == 0) {
          for (int dst : {3, 1, 2}) comm.isend(dst, 9, bytes_of("pre-reset"));
          comm.reset_requests();
          comm.isend(2, 9, bytes_of("post-reset"));
          comm.flush_sends();
        } else {
          std::vector<std::string> expect = {"pre-reset"};
          if (rank == 2) expect.push_back("post-reset");
          for (const std::string& text : expect) {
            const RequestId r = comm.irecv(0, 9);
            comm.wait(r);
            EXPECT_EQ(str_of(comm.take_payload(r)), text) << "rank " << rank;
          }
        }
        comm.reset_requests();
        comm.barrier();
      },
      &counters);
  EXPECT_EQ(counters[0].agg_msgs_packed, 4u);
  EXPECT_EQ(counters[0].agg_flushes, 4u);  // three at the reset, one after
}

// ---------------------------------------------------------------------------
// match_visible compaction (the O(n^2) mid-vector erase fix): consuming
// messages from the middle of a large mailbox must preserve arrival order
// for the survivors.

TEST(CommAgg, ManyPendingMessagesMatchInOrderAfterPartialConsumption) {
  constexpr int kMsgs = 64;
  with_agg_ranks(2, AggSpec{}, [](Comm& comm, int rank) {
    if (rank == 0) {
      // Interleave two tags so matching one tag erases from the middle
      // of the visible box repeatedly.
      for (int i = 0; i < kMsgs; ++i) {
        comm.isend(1, 1, bytes_of("odd" + std::to_string(i)));
        comm.isend(1, 2, bytes_of("evn" + std::to_string(i)));
      }
      comm.barrier();
    } else {
      comm.barrier();  // everything is already in the mailbox
      // Drain tag 2 first (erasing every other message), then tag 1; both
      // must come out in send order.
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

// ---------------------------------------------------------------------------
// Fault shared fate: one fault roll per aggregate, all subs hit together,
// and retransmits recover each sub individually.

TEST(CommAgg, LossAndDelayShareAggregateFateAndRecover) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "msg_loss:p=0.4,msg_delay:p=0.3:factor=10", 7);
  const hw::CostModel cost(machine());
  Network net(2, cost);
  net.set_fault_plan(&plan);
  std::vector<hw::PerfCounters> counters(2);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank, &counters[rank]);
    comm.set_agg(AggSpec::parse("on"));
    comm.set_retransmit(true);
    constexpr int kRounds = 12;
    if (rank == 0) {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<RequestId> ids;
        ids.push_back(comm.isend(1, 1, bytes_of("x" + std::to_string(i))));
        ids.push_back(comm.isend(1, 2, bytes_of("y" + std::to_string(i))));
        comm.wait_all(ids);
      }
      comm.barrier();
    } else {
      for (int i = 0; i < kRounds; ++i) {
        const RequestId rx = comm.irecv(0, 1);
        const RequestId ry = comm.irecv(0, 2);
        const RequestId ids[] = {rx, ry};
        comm.wait_all(ids);
        EXPECT_EQ(str_of(comm.take_payload(rx)), "x" + std::to_string(i));
        EXPECT_EQ(str_of(comm.take_payload(ry)), "y" + std::to_string(i));
      }
      comm.barrier();
    }
  });
  hw::PerfCounters sum;
  for (const auto& c : counters) sum.merge(c);
  EXPECT_GT(sum.fault_injected, 0u);
  EXPECT_GT(sum.agg_msgs_packed, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: numerics and virtual comm counters with aggregation on/off.

runtime::RunConfig e2e_config() {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 2}, {8, 8, 8});
  config.nranks = 4;
  config.timesteps = 3;
  return config;
}

TEST(CommAggE2E, NumericsBitEqualAcrossVariants) {
  // The aggregation layer must be invisible to the application: identical
  // verification metrics (bitwise doubles) with aggregation on or off,
  // for every Table IV variant class exercised in CI equivalence runs.
  for (const std::string variant :
       {"host.sync", "acc.sync", "acc_simd.sync", "acc.async",
        "acc_simd.async"}) {
    runtime::RunConfig off = e2e_config();
    off.variant = runtime::variant_by_name(variant);
    const runtime::RunResult a =
        runtime::run_simulation(off, apps::burgers::BurgersApp());

    runtime::RunConfig on = off;
    on.comm_agg = AggSpec::parse("on");
    const runtime::RunResult b =
        runtime::run_simulation(on, apps::burgers::BurgersApp());

    ASSERT_EQ(a.ranks.size(), b.ranks.size());
    for (std::size_t r = 0; r < a.ranks.size(); ++r)
      EXPECT_EQ(a.ranks[r].metrics, b.ranks[r].metrics)
          << variant << " rank " << r;
    // Same logical message stream, fewer MPI posts.
    const hw::PerfCounters ca = a.merged_counters();
    const hw::PerfCounters cb = b.merged_counters();
    EXPECT_EQ(ca.messages_sent, cb.messages_sent) << variant;
    EXPECT_LT(cb.mpi_posts, ca.mpi_posts) << variant;
    EXPECT_GT(cb.agg_msgs_packed, 0u) << variant;
  }
}

TEST(CommAggE2E, FaultedRunStaysBitEqualWithAggregation) {
  runtime::RunConfig clean_cfg = e2e_config();
  clean_cfg.variant = runtime::variant_by_name("acc.async");
  const runtime::RunResult clean =
      runtime::run_simulation(clean_cfg, apps::burgers::BurgersApp());

  runtime::RunConfig cfg = clean_cfg;
  cfg.comm_agg = AggSpec::parse("on");
  cfg.faults =
      fault::FaultPlan::parse("msg_loss:p=0.2,msg_delay:p=0.2:factor=10", 13);
  const runtime::RunResult faulted =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());

  EXPECT_GT(faulted.merged_counters().fault_injected, 0u);
  ASSERT_EQ(clean.ranks.size(), faulted.ranks.size());
  for (std::size_t r = 0; r < clean.ranks.size(); ++r)
    EXPECT_EQ(clean.ranks[r].metrics, faulted.ranks[r].metrics)
        << "rank " << r;
}

TEST(CommAggE2E, ArchivesByteEqualWithAggregation) {
  // Every archived file — index, step metadata, fields — must be the same
  // bytes with aggregation off and on, and both runs must validate clean.
  const std::string base = ::testing::TempDir() + "/usw_comm_agg_archive_";
  std::map<std::string, std::string> trees[2];
  for (const bool on : {false, true}) {
    runtime::RunConfig cfg = e2e_config();
    cfg.timesteps = 4;
    cfg.comm_agg = AggSpec::parse(on ? "on" : "off");
    cfg.check.enabled = true;
    cfg.output_dir = base + (on ? "on" : "off");
    cfg.output_interval = 2;
    std::filesystem::remove_all(cfg.output_dir);
    const runtime::RunResult r =
        runtime::run_simulation(cfg, apps::burgers::BurgersApp());
    EXPECT_EQ(r.total_violations(), 0u) << cfg.comm_agg.describe();
    if (on) {
      EXPECT_GT(r.merged_counters().agg_msgs_packed, 0u);
    }
    trees[on ? 1 : 0] = slurp_tree(cfg.output_dir);
    std::filesystem::remove_all(cfg.output_dir);
  }
  ASSERT_FALSE(trees[0].empty());
  ASSERT_EQ(trees[0].size(), trees[1].size());
  for (const auto& [name, bytes] : trees[0]) {
    auto it = trees[1].find(name);
    ASSERT_NE(it, trees[1].end()) << name;
    EXPECT_TRUE(bytes == it->second) << "archive file differs: " << name;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: aggregation policies move flush points and the eager/
// rendezvous split, and with them virtual comm timing, never numerics.
// (The CommProgressE2E names date from when these contracts also covered
// a deadline-driven progress engine beside polling.)

// Every halo message of e2e_config is 512 bytes. These policies flush at
// every append, flush on size after one sub, and send every halo message
// by rendezvous. Each must match the unaggregated run bit for bit.
constexpr const char* kAggPolicies[] = {"count=1", "size=1k", "rdv=256"};

TEST(CommProgressE2E, NumericsBitEqualAcrossVariants) {
  for (const std::string variant :
       {"host.sync", "acc.sync", "acc_simd.sync", "acc.async",
        "acc_simd.async"}) {
    runtime::RunConfig off = e2e_config();
    off.variant = runtime::variant_by_name(variant);
    const runtime::RunResult ref =
        runtime::run_simulation(off, apps::burgers::BurgersApp());
    for (const char* policy : kAggPolicies) {
      runtime::RunConfig cfg = off;
      cfg.comm_agg = AggSpec::parse(policy);
      const runtime::RunResult got =
          runtime::run_simulation(cfg, apps::burgers::BurgersApp());
      ASSERT_EQ(ref.ranks.size(), got.ranks.size());
      for (std::size_t r = 0; r < ref.ranks.size(); ++r)
        EXPECT_EQ(ref.ranks[r].metrics, got.ranks[r].metrics)
            << variant << " " << policy << " rank " << r;
      EXPECT_EQ(ref.merged_counters().messages_sent,
                got.merged_counters().messages_sent)
          << variant << " " << policy;
    }
  }
}

// Flat 8x8x4 patches send 256-byte and 512-byte halo faces, so a 300-byte
// threshold splits the stream between aggregates and rendezvous sends.
runtime::RunConfig mixed_protocol_config() {
  runtime::RunConfig cfg = e2e_config();
  cfg.problem = runtime::tiny_problem({2, 2, 2}, {8, 8, 4});
  cfg.variant = runtime::variant_by_name("acc_simd.async");
  cfg.comm_agg = AggSpec::parse("rdv=300");
  return cfg;
}

// Message loss and delay under the mixed eager/rendezvous stream: the run
// retransmits and stays bit-equal to a clean unaggregated run.
TEST(CommProgressE2E, FaultedRunStaysBitEqualWithEngine) {
  runtime::RunConfig clean_cfg = mixed_protocol_config();
  clean_cfg.comm_agg = AggSpec{};
  const runtime::RunResult clean =
      runtime::run_simulation(clean_cfg, apps::burgers::BurgersApp());

  runtime::RunConfig cfg = mixed_protocol_config();
  cfg.faults =
      fault::FaultPlan::parse("msg_loss:p=0.2,msg_delay:p=0.2:factor=10", 13);
  const runtime::RunResult faulted =
      runtime::run_simulation(cfg, apps::burgers::BurgersApp());

  const hw::PerfCounters sum = faulted.merged_counters();
  EXPECT_GT(sum.fault_injected, 0u);
  EXPECT_GT(sum.fault_retries, 0u);
  EXPECT_GT(sum.msgs_rendezvous, 0u);
  EXPECT_GT(sum.agg_msgs_packed, 0u);
  ASSERT_EQ(clean.ranks.size(), faulted.ranks.size());
  for (std::size_t r = 0; r < clean.ranks.size(); ++r)
    EXPECT_EQ(clean.ranks[r].metrics, faulted.ranks[r].metrics)
        << "rank " << r;
}

}  // namespace
}  // namespace usw::comm
