// Tests for the athread emulation: offload protocol, completion-flag
// semantics, DMA accounting, and virtual-time behavior.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "athread/athread.h"
#include "sim/coordinator.h"

namespace usw::athread {
namespace {

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
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    std::vector<int> seen;
    cluster.spawn([&seen](CpeContext& ctx) { seen.push_back(ctx.cpe_id()); });
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(seen.front(), 0);
    EXPECT_EQ(seen.back(), 63);
    cluster.join();
    (void)coord;
  });
}

TEST(CpeCluster, CompletionIsMaxOverCpes) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    cluster.spawn([](CpeContext& ctx) {
      ctx.charge((ctx.cpe_id() + 1) * kMicrosecond);  // CPE 63 is slowest
    });
    const TimePs spawn_done = coord.now(0);
    EXPECT_EQ(cluster.completion_time(), spawn_done + 64 * kMicrosecond);
    cluster.join();
    EXPECT_EQ(coord.now(0), spawn_done + 64 * kMicrosecond);
  });
}

TEST(CpeCluster, FlagCountsCompletedCpes) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel&) {
    cluster.spawn([](CpeContext& ctx) {
      ctx.charge((ctx.cpe_id() + 1) * kMicrosecond);
    });
    // Halfway through, 32 CPEs have faaw'd.
    coord.advance(0, 32 * kMicrosecond + 500 * kNanosecond);
    EXPECT_EQ(cluster.flag(), 32);
    cluster.join();
    EXPECT_EQ(cluster.flag(), 64);
  });
}

TEST(CpeCluster, PollChargesTimeAndDetectsCompletion) {
  with_cluster([](sim::Coordinator& coord, CpeCluster& cluster,
                  hw::PerfCounters&, const hw::CostModel& cost) {
    cluster.spawn([](CpeContext& ctx) { ctx.charge(10 * kMicrosecond); });
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

TEST(CpeCluster, DmaMovesDataAndCountsBytes) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    std::vector<double> main_mem(256, 3.25);
    std::vector<double> result(256, 0.0);
    cluster.spawn([&](CpeContext& ctx) {
      if (ctx.cpe_id() != 0) return;
      auto buf = ctx.ldm().alloc<double>(256);
      ctx.get(main_mem.data(), buf.data(), 256 * sizeof(double));
      for (double& x : buf) x *= 2.0;
      ctx.put(buf.data(), result.data(), 256 * sizeof(double));
    });
    cluster.join();
    EXPECT_DOUBLE_EQ(result[0], 6.5);
    EXPECT_DOUBLE_EQ(result[255], 6.5);
    EXPECT_EQ(counters.dma_bytes_in, 256u * 8u);
    EXPECT_EQ(counters.dma_bytes_out, 256u * 8u);
  });
}

TEST(CpeCluster, TimingOnlyDmaChargesWithoutCopy) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    TimePs busy = 0;
    cluster.spawn([&](CpeContext& ctx) {
      if (ctx.cpe_id() != 0) return;
      ctx.get(nullptr, nullptr, 4096);
      busy = ctx.busy();
    });
    cluster.join();
    EXPECT_GT(busy, 0);
    EXPECT_EQ(counters.dma_bytes_in, 4096u);
  });
}

TEST(CpeCluster, ComputeChargesAndCountsFlops) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel& cost) {
    hw::KernelCost kc;
    kc.flops_per_cell = 10;
    cluster.spawn([&](CpeContext& ctx) {
      if (ctx.cpe_id() == 0) ctx.compute(100, kc, false);
    });
    cluster.join();
    EXPECT_DOUBLE_EQ(counters.counted_flops, 1000.0);
    EXPECT_EQ(counters.cells_computed, 100u);
    EXPECT_EQ(counters.kernels_offloaded, 1u);
    (void)cost;
  });
}

TEST(CpeCluster, LdmIsResetBetweenCpes) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    // Every CPE allocates most of the LDM; if reset() were missing this
    // would overflow on the second CPE.
    cluster.spawn([](CpeContext& ctx) {
      EXPECT_NO_THROW(ctx.ldm().alloc<double>(7000));
    });
    cluster.join();
  });
}

TEST(CpeCluster, JoinAccountsWaitTime) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster,
                  hw::PerfCounters& counters, const hw::CostModel&) {
    cluster.spawn([](CpeContext& ctx) { ctx.charge(5 * kMicrosecond); });
    cluster.join();
    EXPECT_EQ(counters.wait_time, 5 * kMicrosecond);
  });
}

TEST(CpeCluster, JobIsReleasedWhenTheOffloadPublishes) {
  with_cluster([](sim::Coordinator&, CpeCluster& cluster, hw::PerfCounters&,
                  const hw::CostModel&) {
    // What a job captures (a tile offload's tiling and plan) is freed with
    // its offload, not held until the group's next spawn.
    const auto sentinel = std::make_shared<int>(0);
    cluster.spawn([sentinel](CpeContext& ctx) { ctx.charge(kMicrosecond); });
    cluster.join();
    EXPECT_EQ(sentinel.use_count(), 1);
  });
}

TEST(CpeCluster, OneActiveCpeRunsOneBodyAndPublishesTheSame) {
  // Only CPE 5 has work. Naming it with set_active_cpes() runs one body
  // instead of 64, and the offload publishes the same busy vector, flag
  // counts and counters. The next plain spawn runs every CPE again.
  struct Outcome {
    int bodies = 0;
    int plain_bodies = 0;
    std::vector<TimePs> busy;
    int flag_mid = 0;
    int flag_end = 0;
    hw::PerfCounters counters;
  };
  const auto run = [](bool only_five) {
    Outcome out;
    with_cluster([&](sim::Coordinator& coord, CpeCluster& cluster,
                     hw::PerfCounters& counters, const hw::CostModel&) {
      CpeCharge work;
      work.busy = 3 * kMicrosecond;
      work.tiles = 2;
      work.dma_in = 800;
      work.dma_out = 512;
      work.cells = 64;
      work.flops = 0.1 + 0.2;
      const int five[] = {5};
      if (only_five) cluster.set_active_cpes(five);
      cluster.spawn([&](CpeContext& ctx) {
        ++out.bodies;
        if (ctx.cpe_id() == 5) ctx.apply(work);
      });
      out.busy = cluster.cpe_busy();
      coord.advance(0, kMicrosecond);
      out.flag_mid = cluster.flag();
      cluster.join();
      out.flag_end = cluster.flag();
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
  EXPECT_EQ(one.flag_mid, all.flag_mid);
  EXPECT_EQ(one.flag_mid, 63);
  EXPECT_EQ(one.flag_end, all.flag_end);
  EXPECT_EQ(one.counters.tiles_executed, all.counters.tiles_executed);
  EXPECT_EQ(one.counters.dma_bytes_in, all.counters.dma_bytes_in);
  EXPECT_EQ(one.counters.dma_bytes_out, all.counters.dma_bytes_out);
  EXPECT_EQ(one.counters.cells_computed, all.counters.cells_computed);
  EXPECT_EQ(one.counters.counted_flops, all.counters.counted_flops);  // bitwise
  EXPECT_EQ(one.counters.kernels_offloaded, all.counters.kernels_offloaded);
  EXPECT_EQ(one.counters.kernel_time, all.counters.kernel_time);
  EXPECT_EQ(one.counters.wait_time, all.counters.wait_time);
}

}  // namespace
}  // namespace usw::athread
