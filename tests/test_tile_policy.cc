// Tests for the tile scheduling policy layer (sched/tile_policy.h): every
// policy must partition the tiles exactly, the static policy must match the
// paper's z-slab partition, the dynamic policy must balance skewed per-tile
// costs, and the planner's charges must equal a per-tile model summed
// straight from the cost model — the charges every CPE body applies.

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
#include "var/ccvariable.h"

namespace usw::athread {

// Readable gtest output for charge comparisons.
void PrintTo(const CpeCharge& c, std::ostream* os) {
  *os << "{busy " << c.busy << ", tiles " << c.tiles << ", grabs " << c.grabs
      << ", dma in " << c.dma_in << ", dma out " << c.dma_out << ", cells "
      << c.cells << ", flops " << c.flops << "}";
}

}  // namespace usw::athread

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

TimePs est_busy_of(const TileAssignment& plan, int cpe) {
  const int i = plan.find(cpe);
  return i < 0 ? 0 : plan.shares[static_cast<std::size_t>(i)].est_busy;
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
    EXPECT_EQ(est_busy_of(plan, cpe), est_busy_of(plan, 0));
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
      EXPECT_EQ(est_busy_of(plan, cpe), 100);  // one grab, no tiles
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
  const auto max_busy = [](const TileAssignment& plan) {
    TimePs max = 0;
    for (const TileAssignment::Share& share : plan.shares)
      max = std::max(max, share.est_busy);
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
// summed straight from the cost model, every CPE body charges exactly its
// share's charge, and under synchronous DMA the planner's virtual clocks
// are those charges, for every policy.

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

TEST(TilePolicy, PlannedClocksMatchSyncExecution) {
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  for (const PlanInput& in : skewed_and_clipped_inputs()) {
    for (TilePolicy policy : kAllPolicies) {
      TileExecArgs args;  // timing-only: views left invalid
      args.kernel = &in.kernel;
      args.policy = policy;
      const auto plan = std::make_shared<const TilePlan>(
          plan_tile_assignment(args, in.patch, 64, 64, cost));
      hw::PerfCounters counters;
      std::vector<TimePs> busy;
      sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
        athread::CpeCluster cluster(cost, coord, rank, &counters);
        cluster.spawn(make_tile_job(args, plan));
        busy = cluster.cpe_busy();
        cluster.join();
      });
      const std::string where =
          std::string(to_string(policy)) + " on " + in.patch.to_string();
      ASSERT_EQ(busy.size(), 64u);
      std::uint64_t grabs = 0;
      for (int cpe = 0; cpe < 64; ++cpe) {
        EXPECT_EQ(busy[static_cast<std::size_t>(cpe)],
                  est_busy_of(plan->assignment, cpe))
            << where << " CPE " << cpe;
        grabs += static_cast<std::uint64_t>(grabs_of(plan->assignment, cpe));
      }
      EXPECT_EQ(counters.tile_grabs, grabs) << where;
    }
  }
}

/// What the CPE running `mine` after `grabs` grabs should charge, priced
/// tile by tile from the cost model: each grab pays one faaw; each tile
/// pays its overhead, compute, ghosted get and interior put (DMA contended
/// over all 64 CPEs). A double-buffered share exposes its first get and
/// last put, and each stage pays max(work_i, get_{i+1} + put_{i-1}).
athread::CpeCharge model_charge(const TileExecArgs& args,
                                const grid::Tiling& tiling, TileRun mine,
                                int grabs, const hw::CostModel& cost) {
  const kern::KernelVariants& k = *args.kernel;
  struct Stage {
    TimePs work, get, put;
  };
  std::vector<Stage> stages;
  athread::CpeCharge c;
  c.tiles = static_cast<std::uint64_t>(mine.size());
  c.grabs = static_cast<std::uint64_t>(grabs);
  c.busy = grabs * cost.cpe_faaw();
  for (const int t : mine) {
    const grid::Box tile = tiling.tile(t);
    const auto cells = static_cast<std::uint64_t>(tile.volume());
    const auto in = static_cast<std::uint64_t>(tile.grown(k.ghost).volume()) *
                    sizeof(double);
    const std::uint64_t out = cells * sizeof(double);
    hw::KernelCost kc = k.cost.scaled(args.cost_scale);
    if (k.tile_cost_scale) kc = kc.scaled(k.tile_cost_scale(tile));
    stages.push_back(
        {cost.cpe_tile_overhead() +
             cost.cpe_compute(cells, kc, args.vectorize, k.use_ieee_exp),
         cost.cpe_dma(in, 64, !args.packed_tiles),
         cost.cpe_dma(out, 64, !args.packed_tiles)});
    c.dma_in += in;
    c.dma_out += out;
    c.cells += cells;
    c.flops += static_cast<double>(cells) * kc.counted_flops_per_cell();
  }
  const std::size_t n = stages.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Stage& s = stages[i];
    if (!args.async_dma) {
      c.busy += s.work + s.get + s.put;
      continue;
    }
    const TimePs next_get = i + 1 < n ? stages[i + 1].get : 0;
    const TimePs prev_put = i > 0 ? stages[i - 1].put : 0;
    c.busy += std::max(s.work, next_get + prev_put);
  }
  if (args.async_dma && n > 0) c.busy += stages.front().get + stages.back().put;
  return c;
}

TEST(TilePolicy, PlannedChargesMatchSyncExecution) {
  // Every share's planned charge must equal the model above — busy time,
  // tiles, grabs, DMA bytes and cells exactly, counted flops bit for bit —
  // and a functional CPE body, which moves real data through the LDM, must
  // leave a fresh context and counter slot at exactly that charge. Under
  // sync DMA the charge is also the planner's clock.
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  kern::KernelEnv env;
  env.time = 0.02;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 32;
  for (const PlanInput& in : skewed_and_clipped_inputs()) {
    var::CCVariable<double> u(in.patch.grown(in.kernel.ghost));
    var::CCVariable<double> out(in.patch);
    for (std::size_t i = 0; i < u.data().size(); ++i)
      u.data()[i] = 0.25 + 1e-3 * static_cast<double>(i % 97);
    for (const bool async_dma : {false, true}) {
      for (TilePolicy policy : kAllPolicies) {
        TileExecArgs args;
        args.kernel = &in.kernel;
        args.env = env;
        args.in = kern::FieldView::of(u);
        args.out = kern::FieldView::of(out);
        args.policy = policy;
        args.async_dma = async_dma;
        const auto plan = std::make_shared<const TilePlan>(
            plan_tile_assignment(args, in.patch, 64, 64, cost));
        const athread::CpeJob job = make_tile_job(args, plan);
        const std::string where = std::string(to_string(policy)) +
                                  (async_dma ? " async on " : " sync on ") +
                                  in.patch.to_string();
        hw::Ldm ldm(cost.params().ldm_bytes);
        for (int cpe = 0; cpe < 64; ++cpe) {
          hw::PerfCounters slot;
          athread::CpeContext ctx(cpe, 64, 64, ldm, cost, &slot);
          job(ctx);
          const int share = plan->assignment.find(cpe);
          if (share < 0) {
            EXPECT_EQ(ctx.busy(), 0) << where << " idle CPE " << cpe;
            EXPECT_EQ(slot.tiles_executed + slot.tile_grabs + slot.cells_computed,
                      0u)
                << where << " idle CPE " << cpe;
            continue;
          }
          const athread::CpeCharge& c = plan->charge(share);
          const athread::CpeCharge model = model_charge(
              args, plan->tiling, plan->assignment.tiles(share),
              plan->assignment.shares[static_cast<std::size_t>(share)].grabs,
              cost);
          EXPECT_EQ(c, model) << where << " CPE " << cpe;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(c.flops),
                    std::bit_cast<std::uint64_t>(model.flops))
              << where << " CPE " << cpe;
          if (!async_dma) {
            EXPECT_EQ(c.busy, est_busy_of(plan->assignment, cpe))
                << where << " CPE " << cpe;
          }
          EXPECT_EQ(ctx.busy(), c.busy) << where << " CPE " << cpe;
          EXPECT_EQ(slot.tiles_executed, c.tiles) << where << " CPE " << cpe;
          EXPECT_EQ(slot.tile_grabs, c.grabs) << where << " CPE " << cpe;
          EXPECT_EQ(slot.dma_bytes_in, c.dma_in) << where << " CPE " << cpe;
          EXPECT_EQ(slot.dma_bytes_out, c.dma_out) << where << " CPE " << cpe;
          EXPECT_EQ(slot.cells_computed, c.cells) << where << " CPE " << cpe;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(slot.counted_flops),
                    std::bit_cast<std::uint64_t>(c.flops))
              << where << " CPE " << cpe;
        }
      }
    }
  }
}

}  // namespace
}  // namespace usw::sched
