// Tests for the athread emulation: offload protocol, completion-flag
// semantics, the MPE-named busy times, and CPE bodies moving data.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "athread/athread.h"
#include "sim/coordinator.h"
#include "support/error.h"
#include "support/test_helpers.h"

namespace usw::athread {
namespace {

using test::spawn_busy;

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

/// Runs `body` as a single simulated rank with a cluster.
template <typename Fn>
void with_cluster(Fn&& body) {
  const hw::CostModel cost(machine());
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    hw::PerfCounters counters;
    CpeCluster cluster(cost, coord, rank, &counters);
    body(coord, cluster, counters, cost);
  });
}

TEST(CpeCluster, SpawnRunsBodyOncePerCpe) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    std::vector<int> seen;
    cluster.spawn([&seen](CpeContext& ctx) { seen.push_back(ctx.cpe_id()); });
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(seen.front(), 0);
    EXPECT_EQ(seen.back(), 63);
    cluster.join();
  });
}

TEST(CpeCluster, CompletionIsMaxOverCpes) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    // CPE 63 is slowest.
    spawn_busy(cluster, [](int id) { return (id + 1) * kMicrosecond; });
    const TimePs spawn_done = coord.now(0);
    EXPECT_EQ(cluster.completion_time(), spawn_done + 64 * kMicrosecond);
    cluster.join();
    EXPECT_EQ(coord.now(0), spawn_done + 64 * kMicrosecond);
  });
}

TEST(CpeCluster, PollChargesTimeAndDetectsCompletion) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel& cost) {
    spawn_busy(cluster, [](int) { return 10 * kMicrosecond; });
    const TimePs t0 = coord.now(0);
    EXPECT_FALSE(cluster.poll());
    EXPECT_EQ(coord.now(0), t0 + cost.flag_poll());
    EXPECT_TRUE(cluster.in_flight());
    coord.advance(0, 20 * kMicrosecond);
    EXPECT_TRUE(cluster.poll());
    EXPECT_FALSE(cluster.in_flight());
  });
}

TEST(CpeCluster, SpawnWhileInFlightAborts) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    cluster.spawn([](CpeContext&) {});
    EXPECT_DEATH(cluster.spawn([](CpeContext&) {}), "already in flight");
    cluster.join();
  });
}

TEST(CpeCluster, BodiesMoveDataThroughTheLdm) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    std::vector<double> main_mem(256, 3.25);
    std::vector<double> result(256, 0.0);
    const int zero[] = {0};
    const TimePs busy[] = {kMicrosecond};
    cluster.set_work(zero, busy);
    // The body reads and writes main memory directly: the LDM is only the
    // tile planner's capacity rule, with no buffer to stage through.
    cluster.spawn([&](CpeContext& ctx) {
      EXPECT_EQ(ctx.cpe_id(), 0);
      for (std::size_t i = 0; i < main_mem.size(); ++i)
        result[i] = 2.0 * main_mem[i];
    });
    cluster.join();
    EXPECT_DOUBLE_EQ(result[0], 6.5);
    EXPECT_DOUBLE_EQ(result[255], 6.5);
    // The cluster counts the offload and its flight time, nothing a body
    // does.
    EXPECT_EQ(counters.kernels_offloaded, 1u);
    EXPECT_EQ(counters.kernel_time, kMicrosecond);
    EXPECT_EQ(counters.dma_bytes_in, 0u);
  });
}

TEST(CpeCluster, ExceptionInCpeBodyPropagatesFromSpawn) {
  // The lowest-id failing CPE's error leaves spawn(), no later body runs,
  // and the group stays idle: the next offload spawns normally.
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    std::vector<int> ran;
    EXPECT_THROW(cluster.spawn([&ran](CpeContext& ctx) {
      ran.push_back(ctx.cpe_id());
      if (ctx.cpe_id() == 3) throw StateError("injected CPE failure");
    }),
                 StateError);
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_FALSE(cluster.in_flight());
    cluster.spawn([](CpeContext&) {});
    cluster.join();
  });
}

TEST(CpeCluster, JoinAccountsWaitTime) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    spawn_busy(cluster, [](int) { return 5 * kMicrosecond; });
    cluster.join();
    EXPECT_EQ(counters.wait_time, 5 * kMicrosecond);
  });
}

TEST(CpeCluster, JobIsReleasedWhenTheOffloadPublishes) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    // The bodies run inside spawn() and the cluster keeps no copy of the
    // job, so what it captures is freed with the caller's job, not held
    // until the group's next spawn.
    const auto sentinel = std::make_shared<int>(0);
    cluster.spawn([sentinel](CpeContext&) {});
    cluster.join();
    EXPECT_EQ(sentinel.use_count(), 1);
  });
}

TEST(CpeCluster, EmptyJobRunsNoBodyAndKeepsItsBusyTimes) {
  // A timing-only offload: the MPE names the busy times and spawns an
  // empty job. Invoking an empty job would throw std::bad_function_call,
  // so a clean spawn and join show that no body ran.
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    const int cpes[] = {2, 9};
    const TimePs busy[] = {4 * kMicrosecond, 7 * kMicrosecond};
    cluster.set_work(cpes, busy);
    EXPECT_NO_THROW(cluster.spawn(CpeJob{}));
    const TimePs spawn_done = coord.now(0);
    EXPECT_EQ(cluster.completion_time(), spawn_done + 7 * kMicrosecond);
    std::vector<TimePs> expected(64, 0);
    expected[2] = 4 * kMicrosecond;
    expected[9] = 7 * kMicrosecond;
    EXPECT_EQ(cluster.cpe_busy(), expected);
    EXPECT_NO_THROW(cluster.join());
    EXPECT_EQ(coord.now(0), spawn_done + 7 * kMicrosecond);
    EXPECT_EQ(counters.kernels_offloaded, 1u);
    EXPECT_EQ(counters.kernel_time, 7 * kMicrosecond);
  });
}

TEST(CpeCluster, OneActiveCpeRunsOneBodyAndPublishesTheSame) {
  // Only CPE 5 has work. Naming it alone with set_work() runs one body
  // instead of 64, and the offload publishes the same busy vector,
  // completion and counters as naming all 64 with the others idle. The
  // next spawn without set_work() runs every CPE again.
  struct Outcome {
    int bodies = 0;
    int plain_bodies = 0;
    std::vector<TimePs> busy;
    TimePs completion = 0;
    hw::PerfCounters counters;
  };
  const auto run = [](bool only_five) {
    Outcome out;
    with_cluster([&](sim::Coordinator&, CpeCluster& cluster,
                     hw::PerfCounters& counters, const hw::CostModel&) {
      const CpeJob count = [&](CpeContext&) { ++out.bodies; };
      const int five[] = {5};
      const TimePs five_busy[] = {3 * kMicrosecond};
      if (only_five) {
        cluster.set_work(five, five_busy);
        cluster.spawn(count);
      } else {
        spawn_busy(
            cluster, [](int id) { return id == 5 ? 3 * kMicrosecond : 0; },
            count);
      }
      out.busy = cluster.cpe_busy();
      out.completion = cluster.completion_time();
      cluster.join();
      out.counters = counters;
      cluster.spawn([&](CpeContext&) { ++out.plain_bodies; });
      cluster.join();
    });
    return out;
  };
  const Outcome all = run(false);
  const Outcome one = run(true);
  EXPECT_EQ(all.bodies, 64);
  EXPECT_EQ(one.bodies, 1);
  EXPECT_EQ(one.plain_bodies, 64);
  EXPECT_EQ(one.busy, all.busy);
  EXPECT_EQ(one.busy[5], 3 * kMicrosecond);
  EXPECT_EQ(one.completion, all.completion);
  EXPECT_EQ(one.counters.kernels_offloaded, all.counters.kernels_offloaded);
  EXPECT_EQ(one.counters.kernel_time, all.counters.kernel_time);
  EXPECT_EQ(one.counters.wait_time, all.counters.wait_time);
}

}  // namespace
}  // namespace usw::athread
