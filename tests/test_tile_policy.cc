// Tests for the tile scheduling policy layer (sched/tile_policy.h): every
// policy must partition the tiles exactly, the static policy must match the
// paper's z-slab partition, the dynamic policy must balance skewed per-tile
// costs, and the planner's charges must equal a per-tile model summed
// straight from the cost model — the charges the MPE applies at every
// offload.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <ostream>
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

// Readable gtest output for charge comparisons.
void PrintTo(const CpeCharge& c, std::ostream* os) {
  *os << "{busy " << c.busy << ", tiles " << c.tiles << ", grabs " << c.grabs
      << ", dma in " << c.dma_in << ", dma out " << c.dma_out << ", cells "
      << c.cells << ", flops " << c.flops << "}";
}

}  // namespace usw::sched

namespace usw::sched {
namespace {

constexpr TilePolicy kAllPolicies[] = {TilePolicy::kStaticZ,
                                       TilePolicy::kDynamic};

grid::Tiling make_tiling(grid::IntVec cells, grid::IntVec shape) {
  return grid::Tiling(grid::Box{{0, 0, 0}, cells}, shape);
}

TimePs uniform(int) { return 1000; }

// Lookups by CPE id; an idle CPE has no share: no tiles, grabs or busy time.

/// The tiles `cpe` runs, in execution order.
std::vector<int> tiles_of(const TileAssignment& plan, int cpe) {
  std::vector<int> tiles;
  if (const int i = plan.find(cpe); i >= 0)
    for (const int t : plan.tiles(i)) tiles.push_back(t);
  return tiles;
}

int grabs_of(const TileAssignment& plan, int cpe) {
  const int i = plan.find(cpe);
  return i < 0 ? 0 : plan.shares[static_cast<std::size_t>(i)].grabs;
}

/// The virtual clock `cpe` reaches under `tile_cost`: one `grab_cost` per
/// grab plus the price of each of its tiles.
TimePs load_of(const TileAssignment& plan, int cpe, const TileCostFn& tile_cost,
               TimePs grab_cost) {
  TimePs load = grabs_of(plan, cpe) * grab_cost;
  for (const int t : tiles_of(plan, cpe)) load += tile_cost(t);
  return load;
}

TEST(TilePolicy, ParsesAndPrints) {
  for (TilePolicy policy : kAllPolicies)
    EXPECT_EQ(tile_policy_from_string(to_string(policy)), policy);
  EXPECT_STREQ(to_string(TilePolicy::kStaticZ), "static");
  EXPECT_STREQ(to_string(TilePolicy::kDynamic), "dynamic");
  EXPECT_THROW(tile_policy_from_string("guided"), ConfigError);
  EXPECT_THROW(tile_policy_from_string("random"), ConfigError);
  EXPECT_THROW(tile_policy_from_string(""), ConfigError);
}

TEST(TilePolicy, EveryPolicyIsAnExactPartition) {
  // Clipped boundary tiles and a CPE count that divides nothing evenly.
  const grid::Tiling tiling = make_tiling({12, 12, 40}, {8, 8, 8});
  for (TilePolicy policy : kAllPolicies) {
    const TileAssignment plan = assign_tiles(tiling, 7, policy, uniform, 100);
    EXPECT_EQ(plan.n_cpes, 7);
    EXPECT_EQ(plan.num_tiles(), tiling.num_tiles());
    std::vector<int> all;
    for (int cpe = 0; cpe < plan.n_cpes; ++cpe) {
      const std::vector<int> tiles = tiles_of(plan, cpe);
      all.insert(all.end(), tiles.begin(), tiles.end());
    }
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
    EXPECT_EQ(tiles_of(plan, cpe), tiling.tiles_for_cpe(cpe, 64));
    EXPECT_EQ(grabs_of(plan, cpe), 0);
  }
}

TEST(TilePolicy, DynamicSpreadsUniformTilesEvenly) {
  // 128 uniform tiles over 64 CPEs: exactly two each, identical clocks.
  const grid::Tiling tiling = make_tiling({16, 16, 1024}, {16, 16, 8});
  const TileAssignment plan =
      assign_tiles(tiling, 64, TilePolicy::kDynamic, uniform, 100);
  for (int cpe = 0; cpe < 64; ++cpe) {
    EXPECT_EQ(tiles_of(plan, cpe).size(), 2u);
    // Two winning grabs plus the terminating one.
    EXPECT_EQ(grabs_of(plan, cpe), 3);
    EXPECT_EQ(load_of(plan, cpe, uniform, 100), load_of(plan, 0, uniform, 100));
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
    total_grabs += grabs_of(plan, cpe);
    if (cpe < 4) {
      EXPECT_EQ(tiles_of(plan, cpe).size(), 1u);
      EXPECT_EQ(grabs_of(plan, cpe), 2);
    } else {
      EXPECT_TRUE(tiles_of(plan, cpe).empty());
      EXPECT_EQ(grabs_of(plan, cpe), 1);
      EXPECT_EQ(load_of(plan, cpe, uniform, 100), 100);  // one grab, no tiles
    }
  }
  EXPECT_EQ(total_grabs, tiling.num_tiles() + 8);
}

TEST(TilePolicy, DynamicBalancesSkewedCosts) {
  // 64 z-slab tiles over 8 CPEs, tile 37 being 10x the rest: the static
  // partition pins the hot tile onto one CPE's full 8-slab share, while
  // the self-scheduled policy routes cold tiles away from the hot CPE.
  const grid::Tiling tiling = make_tiling({16, 16, 512}, {16, 16, 8});
  const TileCostFn skewed = [](int t) -> TimePs {
    return t == 37 ? 10000 : 1000;
  };
  const auto max_busy = [&](const TileAssignment& plan) {
    TimePs max = 0;
    for (const int cpe : plan.cpes)
      max = std::max(max, load_of(plan, cpe, skewed, 100));
    return max;
  };
  const TimePs st =
      max_busy(assign_tiles(tiling, 8, TilePolicy::kStaticZ, skewed, 100));
  const TimePs dyn =
      max_busy(assign_tiles(tiling, 8, TilePolicy::kDynamic, skewed, 100));
  EXPECT_LT(dyn, st);
}

// ---------------------------------------------------------------------------
// Planner vs model: every share's planned charge equals a per-tile model
// summed straight from the cost model, the assignment is the one the
// model's synchronous per-tile prices decide, and under synchronous DMA
// the MPE charges every CPE its load under those prices, for every policy.

/// The planner's inputs: per-tile cost variation on equal tiles, so the
/// dynamic assignment is non-trivial; and no variation on a patch clipped
/// on every axis, so consecutive tiles change extent. The planner prices a
/// tile once per run of equal (extent, scale) keys; both inputs change the
/// key.
struct PlanInput {
  kern::KernelVariants kernel;
  grid::Box patch;
};

std::vector<PlanInput> skewed_and_clipped_inputs() {
  kern::KernelVariants skewed =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  skewed.tile_cost_scale = [](const grid::Box& tile) {
    return tile.lo.z == 0 ? 5.0 : 1.0;
  };
  return {{skewed, {{0, 0, 0}, {16, 16, 32}}},
          {apps::burgers::make_burgers_kernel(false, {8, 8, 8}),
           {{0, 0, 0}, {20, 12, 20}}}};
}

/// What one tile moves and costs a CPE, priced from the cost model: its
/// overhead and compute, its ghosted get and its interior put (DMA
/// contended over all 64 CPEs).
struct ModelTile {
  std::uint64_t cells = 0;
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  double flops = 0.0;
  TimePs work = 0;
  TimePs get = 0;
  TimePs put = 0;
  /// The synchronous end-to-end price.
  TimePs price() const { return work + get + put; }
};

ModelTile model_tile(const TileExecArgs& args, const grid::Box& tile,
                     const hw::CostModel& cost) {
  const kern::KernelVariants& k = *args.kernel;
  hw::KernelCost kc = k.cost.scaled(args.cost_scale);
  if (k.tile_cost_scale) kc = kc.scaled(k.tile_cost_scale(tile));
  ModelTile m;
  m.cells = static_cast<std::uint64_t>(tile.volume());
  m.in = static_cast<std::uint64_t>(tile.grown(k.ghost).volume()) *
         sizeof(double);
  m.out = m.cells * sizeof(double);
  m.flops = static_cast<double>(m.cells) * kc.counted_flops_per_cell();
  m.work = cost.cpe_tile_overhead() +
           cost.cpe_compute(m.cells, kc, args.vectorize, k.use_ieee_exp);
  m.get = cost.cpe_dma(m.in, 64, !args.packed_tiles);
  m.put = cost.cpe_dma(m.out, 64, !args.packed_tiles);
  return m;
}

/// What the CPE running `mine` after `grabs` grabs should charge, priced
/// tile by tile: each grab pays one faaw; each tile its model_tile terms.
/// A double-buffered share exposes its first get and last put, and each
/// stage pays max(work_i, get_{i+1} + put_{i-1}).
CpeCharge model_charge(const TileExecArgs& args, const grid::Tiling& tiling,
                       TileRun mine, int grabs, const hw::CostModel& cost) {
  std::vector<ModelTile> stages;
  CpeCharge c;
  c.tiles = static_cast<std::uint64_t>(mine.size());
  c.grabs = static_cast<std::uint64_t>(grabs);
  c.busy = grabs * cost.cpe_faaw();
  for (const int t : mine) {
    const ModelTile m = model_tile(args, tiling.tile(t), cost);
    stages.push_back(m);
    c.dma_in += m.in;
    c.dma_out += m.out;
    c.cells += m.cells;
    c.flops += m.flops;
  }
  const std::size_t n = stages.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ModelTile& s = stages[i];
    if (!args.async_dma) {
      c.busy += s.price();
      continue;
    }
    const TimePs next_get = i + 1 < n ? stages[i + 1].get : 0;
    const TimePs prev_put = i > 0 ? stages[i - 1].put : 0;
    c.busy += std::max(s.work, next_get + prev_put);
  }
  if (args.async_dma && n > 0) c.busy += stages.front().get + stages.back().put;
  return c;
}

TEST(TilePolicy, PlannedClocksMatchSyncExecution) {
  // Under synchronous DMA the MPE charges every CPE of an offload exactly
  // its load under the model's per-tile price, and the cluster publishes
  // those busy times per CPE (zero for a CPE without a share).
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  for (const PlanInput& in : skewed_and_clipped_inputs()) {
    for (TilePolicy policy : kAllPolicies) {
      TileExecArgs args;  // timing-only: views left invalid
      args.kernel = &in.kernel;
      args.policy = policy;
      const TilePlan plan = plan_tile_assignment(args, in.patch, 64, 64, cost);
      const TileCostFn price = [&](int t) {
        return model_tile(args, plan.tiling.tile(t), cost).price();
      };
      hw::PerfCounters counters;
      std::vector<TimePs> busy;
      sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
        athread::CpeCluster cluster(cost, coord, rank, &counters);
        std::vector<TimePs> share_busy;
        charge_offload(args, plan, 64, cost, share_busy, counters);
        cluster.set_work(plan.assignment.cpes, share_busy);
        cluster.spawn({});
        busy = cluster.cpe_busy();
        cluster.join();
      });
      const std::string where =
          std::string(to_string(policy)) + " on " + in.patch.to_string();
      ASSERT_EQ(busy.size(), 64u);
      std::uint64_t grabs = 0;
      for (int cpe = 0; cpe < 64; ++cpe) {
        EXPECT_EQ(busy[static_cast<std::size_t>(cpe)],
                  load_of(plan.assignment, cpe, price, cost.cpe_faaw()))
            << where << " CPE " << cpe;
        grabs += static_cast<std::uint64_t>(grabs_of(plan.assignment, cpe));
      }
      EXPECT_EQ(counters.tile_grabs, grabs) << where;
    }
  }
}

TEST(TilePolicy, PlannedChargesMatchSyncExecution) {
  // Every share's planned charge must equal the model above — busy time,
  // tiles, grabs, DMA bytes and cells exactly, counted flops bit for bit.
  // The assignment must be the one the model's synchronous per-tile prices
  // decide: replanned with assign_tiles it is the same, also on groups of
  // 2, 3, 5 and 7 CPEs, where the prices decide the dynamic grab order.
  // Under sync DMA each charge's busy time is also the share's load under
  // those prices.
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  for (const PlanInput& in : skewed_and_clipped_inputs()) {
    for (const bool async_dma : {false, true}) {
      for (TilePolicy policy : kAllPolicies) {
        for (const int n_cpes : {64, 2, 3, 5, 7}) {
          TileExecArgs args;  // timing-only: the charges need no data
          args.kernel = &in.kernel;
          args.policy = policy;
          args.async_dma = async_dma;
          const TilePlan plan =
              plan_tile_assignment(args, in.patch, n_cpes, 64, cost);
          const TileAssignment& a = plan.assignment;
          const std::string where =
              std::string(to_string(policy)) +
              (async_dma ? " async on " : " sync on ") + in.patch.to_string() +
              " over " + std::to_string(n_cpes) + " CPEs";
          const TileCostFn price = [&](int t) {
            return model_tile(args, plan.tiling.tile(t), cost).price();
          };
          const TileAssignment replan = assign_tiles(
              plan.tiling, n_cpes, policy, price, cost.cpe_faaw());
          EXPECT_EQ(replan.cpes, a.cpes) << where;
          EXPECT_EQ(replan.order, a.order) << where;
          ASSERT_EQ(replan.shares.size(), a.shares.size()) << where;
          for (std::size_t i = 0; i < a.shares.size(); ++i) {
            EXPECT_EQ(replan.shares[i].end, a.shares[i].end) << where;
            EXPECT_EQ(replan.shares[i].grabs, a.shares[i].grabs) << where;
          }
          for (int i = 0; i < static_cast<int>(a.shares.size()); ++i) {
            const int cpe = a.cpes[static_cast<std::size_t>(i)];
            const CpeCharge& c = plan.charge(i);
            const CpeCharge model = model_charge(
                args, plan.tiling, a.tiles(i),
                a.shares[static_cast<std::size_t>(i)].grabs, cost);
            EXPECT_EQ(c, model) << where << " CPE " << cpe;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(c.flops),
                      std::bit_cast<std::uint64_t>(model.flops))
                << where << " CPE " << cpe;
            if (!async_dma) {
              EXPECT_EQ(c.busy, load_of(a, cpe, price, cost.cpe_faaw()))
                  << where << " CPE " << cpe;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace usw::sched
