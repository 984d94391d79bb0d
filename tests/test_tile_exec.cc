// Tests for the CPE tile executor: functional equivalence with a direct
// kernel application (bodies write their tiles and nothing else), LDM
// capacity enforcement, the MPE-side DMA/tile accounting (injected DMA
// errors included), and timing-only behavior.
// Also failure-injection tests: errors thrown inside rank bodies must
// cancel the whole simulation cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "fault/fault.h"
#include "runtime/controller.h"
#include "sched/tile_exec.h"
#include "sim/coordinator.h"
#include "support/rng.h"

namespace usw::sched {
namespace {

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

kern::KernelEnv test_env() {
  kern::KernelEnv env;
  env.time = 0.02;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 32;
  return env;
}

/// A quiet NaN whose payload no kernel computes.
constexpr std::uint64_t kSentinelBits = 0x7ff8'0000'dead'beefULL;

/// A tiled offload's output: `patch` grown by one ghost layer, every cell
/// holding the sentinel, so a body that writes outside its tiles shows.
var::CCVariable<double> sentinel_output(const grid::Box& patch) {
  var::CCVariable<double> out(patch.grown(1));
  std::ranges::fill(out.data(), std::bit_cast<double>(kSentinelBits));
  return out;
}

/// `tiled` (a sentinel_output) holds `direct`'s bits on every cell of
/// `patch` and the sentinel's bits on every ghost cell.
void expect_tiles_match_direct(const var::CCVariable<double>& direct,
                               const var::CCVariable<double>& tiled,
                               const grid::Box& patch) {
  const grid::Box& box = tiled.box();
  for (int k = box.lo.z; k < box.hi.z; ++k)
    for (int j = box.lo.y; j < box.hi.y; ++j)
      for (int i = box.lo.x; i < box.hi.x; ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(tiled(i, j, k));
        if (patch.contains({i, j, k})) {
          ASSERT_EQ(bits, std::bit_cast<std::uint64_t>(direct(i, j, k)))
              << "cell " << i << ',' << j << ',' << k;
        } else {
          ASSERT_EQ(bits, kSentinelBits)
              << "ghost cell " << i << ',' << j << ',' << k << " written";
        }
      }
}

/// One offload of `args` over `patch` on group 0 of `cluster`, as
/// Scheduler::offload_stencil runs it: plan, charge the working CPEs on
/// the MPE (into `counters`), spawn the computing job — an empty one
/// when timing-only — and join.
void offload(athread::CpeCluster& cluster, const TileExecArgs& args,
             const grid::Box& patch, const hw::CostModel& cost,
             hw::PerfCounters& counters) {
  const TilePlan plan = plan_tile_assignment(args, patch, cluster.group_size(),
                                             cluster.n_cpes(), cost);
  std::vector<TimePs> busy;
  charge_offload(args, plan, cluster.n_cpes(), cost, busy, counters);
  cluster.set_work(plan.assignment.cpes, busy);
  cluster.spawn(args.in.valid() ? make_tile_job(args, plan) : athread::CpeJob{});
  cluster.join();
}

TEST(TileExec, MatchesDirectKernelApplication) {
  const grid::Box patch{{0, 0, 0}, {32, 32, 24}};
  var::CCVariable<double> u0(patch.grown(1)), direct(patch);
  var::CCVariable<double> tiled = sentinel_output(patch);
  SplitMix64 rng(31);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    offload(cluster, args, patch, cost, counters);
  });
  expect_tiles_match_direct(direct, tiled, patch);
}

TEST(TileExec, SimdTilingAlsoMatchesDirect) {
  const grid::Box patch{{0, 0, 0}, {20, 12, 16}};  // remainder lanes in x
  var::CCVariable<double> u0(patch.grown(1)), direct(patch);
  var::CCVariable<double> tiled = sentinel_output(patch);
  SplitMix64 rng(33);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = test_env();
  kv.simd(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.vectorize = true;
    offload(cluster, args, patch, cost, counters);
  });
  expect_tiles_match_direct(direct, tiled, patch);
}

/// 128 tiles of 16x16x8 in 8 z-slabs: under static-z, 8 of the 64 CPEs
/// get one slab each.
const grid::Box kCube{{0, 0, 0}, {64, 64, 64}};

/// The boxes as sorted text: an order-free comparison that prints.
std::vector<std::string> sorted_names(const std::vector<grid::Box>& boxes) {
  std::vector<std::string> names;
  for (const grid::Box& b : boxes) names.push_back(b.to_string());
  std::ranges::sort(names);
  return names;
}

TEST(TileExec, StaticSharesMakeOneCallDynamicGrabsOneCallPerTile) {
  // A body calls the kernel once under static-z, on the union of its
  // share's tiles, and once per grabbed tile under the dynamic policy.
  var::CCVariable<double> u0(kCube.grown(1)), out(kCube);
  std::vector<grid::Box> calls;
  kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  kv.scalar = [&calls](const kern::KernelEnv&, const kern::FieldView&,
                       const kern::FieldView&, const grid::Box& region) {
    calls.push_back(region);
  };
  const hw::CostModel cost(machine());
  for (const TilePolicy policy : {TilePolicy::kStaticZ, TilePolicy::kDynamic}) {
    SCOPED_TRACE(to_string(policy));
    calls.clear();
    hw::PerfCounters counters;
    sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
      athread::CpeCluster cluster(cost, coord, rank, &counters);
      TileExecArgs args;
      args.kernel = &kv;
      args.env = test_env();
      args.in = kern::FieldView::of(u0);
      args.out = kern::FieldView::of(out);
      args.policy = policy;
      offload(cluster, args, kCube, cost, counters);
    });
    std::vector<grid::Box> want;
    if (policy == TilePolicy::kStaticZ) {
      for (int slab = 0; slab < 8; ++slab)
        want.push_back({{0, 0, 8 * slab}, {64, 64, 8 * slab + 8}});
    } else {
      const grid::Tiling tiling(kCube, kv.tile_shape);
      for (int t = 0; t < tiling.num_tiles(); ++t) want.push_back(tiling.tile(t));
    }
    EXPECT_EQ(sorted_names(calls), sorted_names(want));
    EXPECT_EQ(counters.tiles_executed, 128u);
  }
}

TEST(TileExec, TilesMatchDirectKernelOnACubeUnderEveryPolicy) {
  // One kernel call per static-z share and one per dynamic grab both write
  // the direct kernel's bits on the interior and write no ghost cell.
  var::CCVariable<double> u0(kCube.grown(1)), direct(kCube);
  SplitMix64 rng(35);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::KernelEnv env = test_env();
  kv.simd(env, kern::FieldView::of(u0), kern::FieldView::of(direct), kCube);

  const hw::CostModel cost(machine());
  for (const TilePolicy policy : {TilePolicy::kStaticZ, TilePolicy::kDynamic}) {
    SCOPED_TRACE(to_string(policy));
    var::CCVariable<double> tiled = sentinel_output(kCube);
    hw::PerfCounters counters;
    sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
      athread::CpeCluster cluster(cost, coord, rank, &counters);
      TileExecArgs args;
      args.kernel = &kv;
      args.env = env;
      args.in = kern::FieldView::of(u0);
      args.out = kern::FieldView::of(tiled);
      args.vectorize = true;
      args.policy = policy;
      offload(cluster, args, kCube, cost, counters);
    });
    expect_tiles_match_direct(direct, tiled, kCube);
  }
}

TEST(TileExec, CountsTilesAndDmaTraffic) {
  const grid::Box patch{{0, 0, 0}, {16, 16, 64}};  // 8 tiles of 16x16x8
  var::CCVariable<double> u0(patch.grown(1)), out(patch);
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = test_env();
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(out);
    offload(cluster, args, patch, cost, counters);
  });
  EXPECT_EQ(counters.tiles_executed, 8u);
  EXPECT_EQ(counters.cells_computed, static_cast<std::uint64_t>(patch.volume()));
  // Each tile stages a ghosted 18x18x10 block in and a 16x16x8 block out.
  EXPECT_EQ(counters.dma_bytes_in, 8u * 18 * 18 * 10 * 8);
  EXPECT_EQ(counters.dma_bytes_out, 8u * 16 * 16 * 8 * 8);
  EXPECT_DOUBLE_EQ(counters.counted_flops,
                   static_cast<double>(patch.volume()) *
                       apps::burgers::burgers_kernel_cost().counted_flops_per_cell());
}

TEST(TileExec, TimingOnlyChargesWithoutData) {
  const grid::Box patch{{0, 0, 0}, {16, 16, 64}};
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  TimePs elapsed = 0;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = test_env();  // views left invalid: timing-only
    const TimePs before = coord.now(rank);
    offload(cluster, args, patch, cost, counters);
    elapsed = coord.now(rank) - before;
  });
  EXPECT_GT(elapsed, 0);
  EXPECT_EQ(counters.tiles_executed, 8u);
  EXPECT_GT(counters.counted_flops, 0.0);
}

TEST(TileExec, InjectedDmaErrorsChargeOneReissuePerTile) {
  // Under dma_error:p=1 every tile's input get fails once and is re-issued.
  // The MPE charges each working CPE its planned charge plus one transfer
  // of the ghosted tile per tile, and counts one injected fault and one
  // retry per tile. A synchronous re-issue is one more get, so its bytes
  // count as DMA input; the double-buffered pipeline charges it as an
  // exposed stall only.
  const grid::Box patch{{0, 0, 0}, {20, 12, 20}};  // clipped, mixed tiles
  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const hw::CostModel cost(machine());
  const fault::FaultPlan faults = fault::FaultPlan::parse("dma_error:p=1", 7);
  for (const bool async_dma : {false, true}) {
    for (const bool packed : {false, true}) {
      TileExecArgs args;  // timing-only: the charge needs no data
      args.kernel = &kv;
      args.async_dma = async_dma;
      args.packed_tiles = packed;
      args.policy = TilePolicy::kDynamic;
      const TilePlan plan = plan_tile_assignment(args, patch, 64, 64, cost);
      hw::PerfCounters clean;
      std::vector<TimePs> clean_busy;
      charge_offload(args, plan, 64, cost, clean_busy, clean);
      args.fault.plan = &faults;
      args.fault.rank = 1;
      args.fault.step = 3;
      args.fault.task = 2;
      hw::PerfCounters faulted;
      std::vector<TimePs> busy;
      charge_offload(args, plan, 64, cost, busy, faulted);

      const std::string where = std::string(async_dma ? "async" : "sync") +
                                (packed ? " packed" : " strided");
      const TileAssignment& a = plan.assignment;
      ASSERT_EQ(busy.size(), a.shares.size()) << where;
      std::uint64_t reissued = 0;
      for (int i = 0; i < static_cast<int>(a.shares.size()); ++i) {
        TimePs expected = plan.charge(i).busy;
        for (const int t : a.tiles(i)) {
          const auto bytes = static_cast<std::size_t>(
                                 plan.tiling.tile(t).grown(kv.ghost).volume()) *
                             sizeof(double);
          expected += cost.cpe_dma(bytes, 64, !packed);
          reissued += bytes;
        }
        const auto s = static_cast<std::size_t>(i);
        EXPECT_EQ(clean_busy[s], plan.charge(i).busy) << where << " share " << i;
        EXPECT_EQ(busy[s], expected) << where << " share " << i;
      }
      const auto tiles = static_cast<std::uint64_t>(plan.tiling.num_tiles());
      EXPECT_EQ(clean.fault_injected + clean.fault_retries, 0u) << where;
      EXPECT_EQ(faulted.fault_injected, tiles) << where;
      EXPECT_EQ(faulted.fault_retries, tiles) << where;
      EXPECT_EQ(faulted.dma_bytes_in,
                clean.dma_bytes_in + (async_dma ? 0 : reissued))
          << where;
      EXPECT_EQ(faulted.dma_bytes_out, clean.dma_bytes_out) << where;
      EXPECT_EQ(faulted.tiles_executed, clean.tiles_executed) << where;
      EXPECT_EQ(faulted.counted_flops, clean.counted_flops) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Double-buffered DMA edge cases: a single tile (prologue get and epilogue
// put both exposed, nothing to overlap), CPEs with no tiles at all under a
// dynamic assignment, and heterogeneous clipped tiles (each priced and
// computed at its own size).

TEST(TileExec, DoubleBufferedSingleTileMatchesDirect) {
  const grid::Box patch{{0, 0, 0}, {8, 8, 8}};  // one tile == the patch
  var::CCVariable<double> u0(patch.grown(1)), direct(patch);
  var::CCVariable<double> tiled = sentinel_output(patch);
  SplitMix64 rng(37);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  TimePs elapsed = 0;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.async_dma = true;
    const TimePs before = coord.now(rank);
    offload(cluster, args, patch, cost, counters);
    elapsed = coord.now(rank) - before;
  });
  expect_tiles_match_direct(direct, tiled, patch);
  EXPECT_EQ(counters.tiles_executed, 1u);
  EXPECT_EQ(counters.dma_bytes_in, 10u * 10 * 10 * 8);
  EXPECT_EQ(counters.dma_bytes_out, 8u * 8 * 8 * 8);
  EXPECT_GT(elapsed, 0);
}

TEST(TileExec, DoubleBufferedHeterogeneousTilesMatchDirect) {
  // 12x10x20 with 8x8x8 tiles clips every boundary tile: 2x2x3 tiles of
  // mixed shapes on one CPE's slab, each computed in place.
  const grid::Box patch{{0, 0, 0}, {12, 10, 20}};
  var::CCVariable<double> u0(patch.grown(1)), direct(patch);
  var::CCVariable<double> tiled = sentinel_output(patch);
  SplitMix64 rng(41);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.async_dma = true;
    offload(cluster, args, patch, cost, counters);
  });
  expect_tiles_match_direct(direct, tiled, patch);
  EXPECT_EQ(counters.tiles_executed, 12u);
  EXPECT_EQ(counters.cells_computed,
            static_cast<std::uint64_t>(patch.volume()));
}

TEST(TileExec, DoubleBufferedDynamicWithEmptyCpesMatchesDirect) {
  // 4 tiles over 64 CPEs under self-scheduling: 60 CPEs win nothing and
  // must pay only the terminating grab, with no DMA and no tiles.
  const grid::Box patch{{0, 0, 0}, {16, 16, 8}};
  var::CCVariable<double> u0(patch.grown(1)), direct(patch);
  var::CCVariable<double> tiled = sentinel_output(patch);
  SplitMix64 rng(43);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  const kern::KernelVariants kv =
      apps::burgers::make_burgers_kernel(false, {8, 8, 8});
  const kern::KernelEnv env = test_env();
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(direct), patch);

  const hw::CostModel cost(machine());
  hw::PerfCounters counters;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &counters);
    TileExecArgs args;
    args.kernel = &kv;
    args.env = env;
    args.in = kern::FieldView::of(u0);
    args.out = kern::FieldView::of(tiled);
    args.async_dma = true;
    args.policy = TilePolicy::kDynamic;
    offload(cluster, args, patch, cost, counters);
  });
  expect_tiles_match_direct(direct, tiled, patch);
  EXPECT_EQ(counters.tiles_executed, 4u);
  // 4 winning grabs plus one terminating grab per CPE.
  EXPECT_EQ(counters.tile_grabs, 4u + 64u);
}

TEST(TileExec, OversizedTileOverflowsLdm) {
  const grid::Box patch{{0, 0, 0}, {32, 32, 32}};
  kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  kv.tile_shape = {32, 32, 32};  // ~300 KB working set
  const hw::CostModel cost(machine());
  EXPECT_THROW(
      sim::run_ranks(1,
                     [&](sim::Coordinator& coord, int rank) {
                       athread::CpeCluster cluster(cost, coord, rank);
                       TileExecArgs args;
                       args.kernel = &kv;
                       args.env = test_env();
                       hw::PerfCounters counters;
                       offload(cluster, args, patch, cost, counters);
                     }),
      ResourceError);
}

TEST(TileExec, AsyncDmaHalvesTheTileAlongZThenYThenX) {
  const std::size_t ldm = machine().ldm_bytes;
  kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  // 16x16x8 fits once (41.3 KiB) but not twice: halved along z.
  EXPECT_EQ(tile_shape_for(kv, {16, 16, 32}, false, ldm), (grid::IntVec{16, 16, 8}));
  EXPECT_EQ(tile_shape_for(kv, {16, 16, 32}, true, ldm), (grid::IntVec{16, 16, 4}));
  // A patch that clips the tile to a size that fits twice keeps the
  // preferred shape, so the tiling is the one without double buffering.
  EXPECT_EQ(tile_shape_for(kv, {8, 8, 8}, true, ldm), (grid::IntVec{16, 16, 8}));
  // Two ghost layers: halving z is not enough, so y is halved next.
  kv.ghost = 2;
  EXPECT_EQ(tile_shape_for(kv, {16, 16, 32}, true, ldm), (grid::IntVec{16, 8, 4}));
  // A preferred tile that does not fit even once stays, for the planner to
  // reject (OversizedTileOverflowsLdm).
  kv.tile_shape = {32, 32, 32};
  EXPECT_EQ(tile_shape_for(kv, {32, 32, 32}, true, ldm), (grid::IntVec{32, 32, 32}));
}

TEST(FailureInjection, LdmOverflowSurfacesFromFullSimulation) {
  apps::burgers::BurgersApp::Config app_cfg;
  app_cfg.tile_shape = {32, 32, 16};  // does not fit the 64 KB LDM
  apps::burgers::BurgersApp app(app_cfg);
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {32, 32, 16});
  cfg.variant = runtime::variant_by_name("acc.async");
  cfg.nranks = 2;
  cfg.timesteps = 1;
  cfg.storage = var::StorageMode::kTimingOnly;
  EXPECT_THROW(runtime::run_simulation(cfg, app), ResourceError);
}

TEST(FailureInjection, ThrowingTaskCancelsAllRanks) {
  // An application task throwing on one rank must fail the whole run
  // (other ranks are cancelled, no hang, the original error surfaces).
  class ThrowingApp : public apps::burgers::BurgersApp {
   public:
    void build_step_graph(task::TaskGraph& graph,
                          const grid::Level& level) const override {
      BurgersApp::build_step_graph(graph, level);
      auto bomb = task::Task::make_mpe(
          "bomb", [](const task::TaskContext& ctx, const grid::Patch& patch) -> TimePs {
            if (patch.id() == 3 && ctx.step == 1)
              throw StateError("injected task failure");
            return 0;
          });
      graph.add(std::move(bomb));
    }
  };
  ThrowingApp app;
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  cfg.variant = runtime::variant_by_name("acc.sync");
  cfg.nranks = 4;
  cfg.timesteps = 3;
  cfg.storage = var::StorageMode::kTimingOnly;
  try {
    runtime::run_simulation(cfg, app);
    FAIL() << "expected StateError";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("injected task failure"),
              std::string::npos);
  }
}

TEST(FailureInjection, MissingVariableIsDiagnosed) {
  // A task requiring an old-DW variable that initialization never produced
  // must fail with a clear data-warehouse error, not a crash.
  class BadApp : public apps::burgers::BurgersApp {
   public:
    void build_init_graph(task::TaskGraph& graph,
                          const grid::Level& level) const override {
      (void)level;
      auto noop = task::Task::make_mpe(
          "noop", [](const task::TaskContext&, const grid::Patch&) -> TimePs {
            return 0;
          });
      noop->add_computes(var::VarLabel::create("unrelated"));
      graph.add(std::move(noop));
    }
  };
  BadApp app;
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 1, 1}, {8, 8, 8});
  cfg.variant = runtime::variant_by_name("host.sync");
  cfg.nranks = 1;
  cfg.timesteps = 1;
  cfg.storage = var::StorageMode::kFunctional;
  EXPECT_THROW(runtime::run_simulation(cfg, app), StateError);
}

}  // namespace
}  // namespace usw::sched
