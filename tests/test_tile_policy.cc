// Tests for the tile scheduling policy layer (sched/tile_policy.h): every
// policy must partition the tiles exactly, the static policy must match the
// paper's z-slab partition, the dynamic/guided policies must balance skewed
// per-tile costs, and the planner's virtual clocks must equal the busy
// times the synchronous executor actually charges.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "apps/burgers/kernels.h"
#include "athread/athread.h"
#include "grid/tiling.h"
#include "sched/tile_exec.h"
#include "sched/tile_policy.h"
#include "sim/coordinator.h"
#include "support/error.h"

namespace usw::sched {
namespace {

constexpr TilePolicy kAllPolicies[] = {TilePolicy::kStaticZ,
                                       TilePolicy::kDynamic,
                                       TilePolicy::kGuided};

grid::Tiling make_tiling(grid::IntVec cells, grid::IntVec shape) {
  return grid::Tiling(grid::Box{{0, 0, 0}, cells}, shape);
}

TimePs uniform(int) { return 1000; }

TEST(TilePolicy, ParsesAndPrints) {
  for (TilePolicy policy : kAllPolicies)
    EXPECT_EQ(tile_policy_from_string(to_string(policy)), policy);
  EXPECT_STREQ(to_string(TilePolicy::kStaticZ), "static");
  EXPECT_STREQ(to_string(TilePolicy::kDynamic), "dynamic");
  EXPECT_STREQ(to_string(TilePolicy::kGuided), "guided");
  EXPECT_THROW(tile_policy_from_string("random"), ConfigError);
  EXPECT_THROW(tile_policy_from_string(""), ConfigError);
}

TEST(TilePolicy, EveryPolicyIsAnExactPartition) {
  // Clipped boundary tiles and a CPE count that divides nothing evenly.
  const grid::Tiling tiling = make_tiling({12, 12, 40}, {8, 8, 8});
  for (TilePolicy policy : kAllPolicies) {
    const TileAssignment plan = assign_tiles(tiling, 7, policy, uniform, 100);
    EXPECT_EQ(plan.policy, policy);
    EXPECT_EQ(plan.n_cpes(), 7);
    EXPECT_EQ(plan.num_tiles(), tiling.num_tiles());
    std::vector<int> all;
    for (const std::vector<int>& tiles : plan.tiles_per_cpe)
      all.insert(all.end(), tiles.begin(), tiles.end());
    std::sort(all.begin(), all.end());
    std::vector<int> expected(static_cast<std::size_t>(tiling.num_tiles()));
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(all, expected) << to_string(policy);
  }
}

TEST(TilePolicy, StaticMatchesZSlabPartitionAndPaysNoGrabs) {
  const grid::Tiling tiling = make_tiling({16, 16, 80}, {8, 8, 8});
  const TileAssignment plan =
      assign_tiles(tiling, 64, TilePolicy::kStaticZ, uniform, 100);
  for (int cpe = 0; cpe < 64; ++cpe) {
    EXPECT_EQ(plan.tiles_per_cpe[static_cast<std::size_t>(cpe)],
              tiling.tiles_for_cpe(cpe, 64));
    EXPECT_EQ(plan.grabs_per_cpe[static_cast<std::size_t>(cpe)], 0);
  }
}

TEST(TilePolicy, DynamicSpreadsUniformTilesEvenly) {
  // 128 uniform tiles over 64 CPEs: exactly two each, identical clocks.
  const grid::Tiling tiling = make_tiling({16, 16, 1024}, {16, 16, 8});
  const TileAssignment plan =
      assign_tiles(tiling, 64, TilePolicy::kDynamic, uniform, 100);
  for (int cpe = 0; cpe < 64; ++cpe) {
    EXPECT_EQ(plan.tiles_per_cpe[static_cast<std::size_t>(cpe)].size(), 2u);
    // Two winning grabs plus the terminating one.
    EXPECT_EQ(plan.grabs_per_cpe[static_cast<std::size_t>(cpe)], 3);
    EXPECT_EQ(plan.est_busy[static_cast<std::size_t>(cpe)], plan.est_busy[0]);
  }
}

TEST(TilePolicy, IdleCpesStillPayTheTerminatingGrab) {
  // 4 tiles over 8 CPEs: the losers' only cost is the faaw that ends
  // their loop.
  const grid::Tiling tiling = make_tiling({8, 8, 32}, {8, 8, 8});
  const TileAssignment plan =
      assign_tiles(tiling, 8, TilePolicy::kDynamic, uniform, 100);
  int total_grabs = 0;
  for (int cpe = 0; cpe < 8; ++cpe) {
    const auto c = static_cast<std::size_t>(cpe);
    total_grabs += plan.grabs_per_cpe[c];
    if (cpe < 4) {
      EXPECT_EQ(plan.tiles_per_cpe[c].size(), 1u);
      EXPECT_EQ(plan.grabs_per_cpe[c], 2);
    } else {
      EXPECT_TRUE(plan.tiles_per_cpe[c].empty());
      EXPECT_EQ(plan.grabs_per_cpe[c], 1);
      EXPECT_EQ(plan.est_busy[c], 100);  // one grab, no tiles
    }
  }
  EXPECT_EQ(total_grabs, tiling.num_tiles() + 8);
}

TEST(TilePolicy, DynamicAndGuidedBalanceSkewedCosts) {
  // 64 z-slab tiles over 8 CPEs, tile 37 being 10x the rest: the static
  // partition pins the hot tile onto one CPE's full 8-slab share, while
  // the self-scheduled policies route cold tiles away from the hot CPE.
  // (The hot tile sits mid-sequence: guided's early chunks are 8 tiles
  // wide, so a hot tile at index 0 would land in a full-size first chunk
  // and guided would degenerate to static's worst case.)
  const grid::Tiling tiling = make_tiling({16, 16, 512}, {16, 16, 8});
  const TileCostFn skewed = [](int t) -> TimePs {
    return t == 37 ? 10000 : 1000;
  };
  const auto max_busy = [](const TileAssignment& plan) {
    return *std::max_element(plan.est_busy.begin(), plan.est_busy.end());
  };
  const TimePs st =
      max_busy(assign_tiles(tiling, 8, TilePolicy::kStaticZ, skewed, 100));
  const TimePs dyn =
      max_busy(assign_tiles(tiling, 8, TilePolicy::kDynamic, skewed, 100));
  const TimePs gui =
      max_busy(assign_tiles(tiling, 8, TilePolicy::kGuided, skewed, 100));
  EXPECT_LT(dyn, st);
  EXPECT_LT(gui, st);
}

TEST(TilePolicy, GuidedPaysFewerGrabsThanDynamic) {
  const grid::Tiling tiling = make_tiling({16, 16, 512}, {16, 16, 8});
  const auto grabs = [&](TilePolicy policy) {
    const TileAssignment plan = assign_tiles(tiling, 4, policy, uniform, 100);
    return std::accumulate(plan.grabs_per_cpe.begin(),
                           plan.grabs_per_cpe.end(), 0);
  };
  // 64 tiles over 4 CPEs: dynamic grabs once per tile (+4 terminating);
  // guided's shrinking chunks need far fewer trips to the shared counter.
  EXPECT_EQ(grabs(TilePolicy::kDynamic), 64 + 4);
  EXPECT_LT(grabs(TilePolicy::kGuided), 64 / 2);
}

// ---------------------------------------------------------------------------
// Planner vs executor: under synchronous DMA the virtual clocks the planner
// accumulates are exactly the busy times the CPEs charge, for every policy.

TEST(TilePolicy, PlannedClocksMatchSyncExecution) {
  // Per-tile cost variation on equal tiles, so the dynamic assignment is
  // non-trivial; and no variation on a patch clipped on every axis, so
  // consecutive tiles change extent. The planner prices a tile once per
  // run of equal (extent, scale) keys; both inputs change the key.
  kern::KernelVariants skewed =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  skewed.tile_cost_scale = [](const grid::Box& tile) {
    return tile.lo.z == 0 ? 5.0 : 1.0;
  };
  const kern::KernelVariants clipped =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const struct {
    const kern::KernelVariants* kernel;
    grid::Box patch;
  } inputs[] = {{&skewed, {{0, 0, 0}, {16, 16, 32}}},
                {&clipped, {{0, 0, 0}, {20, 12, 20}}}};
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  for (const auto& [kernel, patch] : inputs) {
    for (TilePolicy policy : kAllPolicies) {
      TileExecArgs args;  // timing-only: views left invalid
      args.kernel = kernel;
      args.policy = policy;
      const auto tiling =
          std::make_shared<const grid::Tiling>(patch, kernel->tile_shape);
      const auto plan = std::make_shared<const TileAssignment>(
          plan_tile_assignment(args, *tiling, 64, 64, cost));
      hw::PerfCounters counters;
      std::vector<TimePs> busy;
      sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
        athread::CpeCluster cluster(cost, coord, rank, &counters);
        cluster.spawn(make_tile_job(args, tiling, plan));
        busy = cluster.cpe_busy();
        cluster.join();
      });
      const std::string where =
          std::string(to_string(policy)) + " on " + patch.to_string();
      ASSERT_EQ(busy.size(), plan->est_busy.size());
      for (std::size_t cpe = 0; cpe < busy.size(); ++cpe)
        EXPECT_EQ(busy[cpe], plan->est_busy[cpe]) << where << " CPE " << cpe;
      const std::uint64_t grabs = std::accumulate(
          plan->grabs_per_cpe.begin(), plan->grabs_per_cpe.end(), 0ull);
      EXPECT_EQ(counters.tile_grabs, grabs) << where;
    }
  }
}

}  // namespace
}  // namespace usw::sched
