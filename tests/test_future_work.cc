// Tests for the Sec IX future-work features: CPE groups, double-buffered
// DMA, and packed tiles. Functional results must be unchanged; timing
// effects must have the right sign; configuration errors must be caught.

#include <gtest/gtest.h>

#include "apps/burgers/burgers_app.h"
#include "athread/athread.h"
#include "runtime/controller.h"
#include "runtime/observe.h"

namespace usw {
namespace {

runtime::RunResult run_future(int groups, bool async_dma, bool packed,
                              grid::IntVec tile, var::StorageMode storage,
                              int ranks = 2) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 2}, {16, 16, 32});
  cfg.variant = runtime::variant_by_name("acc_simd.async");
  cfg.nranks = ranks;
  cfg.timesteps = 3;
  cfg.storage = storage;
  cfg.cpe_groups = groups;
  cfg.async_dma = async_dma;
  cfg.packed_tiles = packed;
  apps::burgers::BurgersApp::Config app_cfg;
  app_cfg.tile_shape = tile;
  apps::burgers::BurgersApp app(app_cfg);
  return runtime::run_simulation(cfg, app);
}

TEST(FutureWork, GroupsPreserveNumericsExactly) {
  const auto base =
      run_future(1, false, false, {16, 16, 8}, var::StorageMode::kFunctional);
  for (int groups : {2, 4, 8}) {
    const auto grouped =
        run_future(groups, false, false, {16, 16, 8}, var::StorageMode::kFunctional);
    EXPECT_EQ(grouped.ranks[0].metrics.at("linf_error"),
              base.ranks[0].metrics.at("linf_error"))
        << groups << " groups";
  }
}

TEST(FutureWork, DmaOptionsPreserveNumericsExactly) {
  const auto base =
      run_future(1, false, false, {16, 16, 4}, var::StorageMode::kFunctional);
  const auto dbuf =
      run_future(1, true, false, {16, 16, 4}, var::StorageMode::kFunctional);
  const auto packed =
      run_future(1, false, true, {16, 16, 4}, var::StorageMode::kFunctional);
  EXPECT_EQ(dbuf.ranks[0].metrics.at("linf_error"),
            base.ranks[0].metrics.at("linf_error"));
  EXPECT_EQ(packed.ranks[0].metrics.at("linf_error"),
            base.ranks[0].metrics.at("linf_error"));
}

TEST(FutureWork, PackedTilesAreNeverSlower) {
  const auto base =
      run_future(1, false, false, {16, 16, 8}, var::StorageMode::kTimingOnly);
  const auto packed =
      run_future(1, false, true, {16, 16, 8}, var::StorageMode::kTimingOnly);
  EXPECT_LE(packed.mean_step_wall(), base.mean_step_wall());
}

TEST(FutureWork, AsyncDmaHidesTransferTime) {
  // Needs several tiles per CPE for the pipeline to have steady state
  // (with one tile per CPE, prologue + epilogue equal the synchronous
  // cost). 16x16x512 patches with 16x16x4 tiles give 2 tiles per CPE.
  auto run_z512 = [](bool async_dma) {
    runtime::RunConfig cfg;
    cfg.problem = runtime::tiny_problem({2, 1, 1}, {16, 16, 512});
    cfg.variant = runtime::variant_by_name("acc_simd.async");
    cfg.nranks = 1;
    cfg.timesteps = 2;
    cfg.storage = var::StorageMode::kTimingOnly;
    cfg.async_dma = async_dma;
    apps::burgers::BurgersApp::Config app_cfg;
    app_cfg.tile_shape = {16, 16, 4};
    apps::burgers::BurgersApp app(app_cfg);
    return runtime::run_simulation(cfg, app).mean_step_wall();
  };
  EXPECT_LT(run_z512(true), run_z512(false));
}

TEST(FutureWork, AsyncDmaHalvesTheTileUntilTwoBufferPairsFit) {
  // The 16x16x8 tile fits the LDM once (41 KiB) but not twice, so double
  // buffering halves it along z: the run is the one that asks for 16x16x4
  // (two pairs of 23 KiB), step for step and counter for counter.
  const auto halved =
      run_future(1, true, false, {16, 16, 8}, var::StorageMode::kTimingOnly);
  const auto asked =
      run_future(1, true, false, {16, 16, 4}, var::StorageMode::kTimingOnly);
  for (int s = 0; s < halved.timesteps; ++s)
    EXPECT_EQ(halved.step_wall(s), asked.step_wall(s)) << "step " << s;
  EXPECT_EQ(halved.merged_counters().tiles_executed, asked.merged_counters().tiles_executed);
  EXPECT_EQ(halved.merged_counters().dma_bytes_in, asked.merged_counters().dma_bytes_in);
  // Single-buffered, the same 16x16x8 tile stays whole.
  EXPECT_LT(run_future(1, false, false, {16, 16, 8}, var::StorageMode::kTimingOnly)
                .merged_counters()
                .tiles_executed,
            halved.merged_counters().tiles_executed);
}

TEST(FutureWork, InvalidGroupCountRejected) {
  EXPECT_THROW(
      run_future(3, false, false, {16, 16, 8}, var::StorageMode::kTimingOnly),
      ConfigError);
  EXPECT_THROW(
      run_future(0, false, false, {16, 16, 8}, var::StorageMode::kTimingOnly),
      ConfigError);
}

TEST(FutureWork, GroupsRunKernelsConcurrently) {
  // Direct cluster-level check: two groups can be in flight at once and
  // complete independently.
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, nullptr, 2);
    EXPECT_EQ(cluster.group_size(), 32);
    const int cpe[] = {0};
    const TimePs short_busy[] = {10 * kMicrosecond};
    const TimePs long_busy[] = {30 * kMicrosecond};
    cluster.set_work(cpe, short_busy);
    cluster.spawn({}, 0);
    cluster.set_work(cpe, long_busy);
    cluster.spawn({}, 1);
    EXPECT_TRUE(cluster.in_flight(0));
    EXPECT_TRUE(cluster.in_flight(1));
    EXPECT_EQ(cluster.earliest_completion(), cluster.completion_time(0));
    cluster.join(0);
    EXPECT_FALSE(cluster.in_flight(0));
    EXPECT_TRUE(cluster.in_flight(1));
    cluster.join(1);
    EXPECT_FALSE(cluster.in_flight(1));
    EXPECT_EQ(cluster.earliest_completion(), sim::kNever);
  });
}

TEST(FutureWork, GroupJobsSeeGroupSizedCpeCount) {
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, nullptr, 4);
    int calls = 0;
    int max_id = -1;
    cluster.spawn(
        [&](athread::CpeContext& ctx) {
          ++calls;
          max_id = std::max(max_id, ctx.cpe_id());
          EXPECT_EQ(ctx.n_cpes(), 16);
        },
        2);
    EXPECT_EQ(calls, 16);
    EXPECT_EQ(max_id, 15);
    cluster.join(2);
  });
}

TEST(FutureWork, SyncModeIgnoresExtraGroups) {
  // Synchronous variants use group 0 only; extra groups must be harmless.
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 16});
  cfg.variant = runtime::variant_by_name("acc.sync");
  cfg.nranks = 1;
  cfg.timesteps = 2;
  cfg.storage = var::StorageMode::kTimingOnly;
  apps::burgers::BurgersApp app;
  const auto one_group = runtime::run_simulation(cfg, app);
  cfg.cpe_groups = 4;
  const auto four_groups = runtime::run_simulation(cfg, app);
  // Kernels run on a quarter of the CPEs, so sync mode gets slower — but
  // completes correctly.
  EXPECT_GE(four_groups.mean_step_wall(), one_group.mean_step_wall());
}

}  // namespace
}  // namespace usw

namespace usw {
namespace {

TEST(FutureWork, GroupsOverlapKernelWindowsInTrace) {
  // With 4 CPE groups and many ready patches, the trace must show kernel
  // flight windows that overlap in virtual time — real task+data
  // parallelism on one CG.
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({4, 2, 1}, {16, 16, 32});
  cfg.variant = runtime::variant_by_name("acc.async");
  cfg.nranks = 1;
  cfg.timesteps = 1;
  cfg.storage = var::StorageMode::kTimingOnly;
  cfg.cpe_groups = 4;
  cfg.collect_trace = true;
  apps::burgers::BurgersApp app;
  // Rank 0's kernel flight windows, from its trace.
  const auto kernels = [&cfg, &app] {
    const obs::RunObservation run =
        runtime::observe(runtime::run_simulation(cfg, app));
    std::vector<obs::Span> out;
    for (const obs::Span& s : run.ranks[0].spans())
      if (s.kind() == obs::SpanKind::kKernel) out.push_back(s);
    return out;
  };
  const std::vector<obs::Span> k = kernels();
  ASSERT_EQ(k.size(), 8u);  // 8 patches, one kernel each
  int overlaps = 0;
  for (std::size_t a = 0; a < k.size(); ++a)
    for (std::size_t b = 0; b < k.size(); ++b)
      if (a != b && k[a].begin < k[b].end && k[b].begin < k[a].end) ++overlaps;
  EXPECT_GT(overlaps, 0);

  // The single-group run must show no overlapping windows.
  cfg.cpe_groups = 1;
  const std::vector<obs::Span> serial = kernels();
  ASSERT_EQ(serial.size(), 8u);
  for (std::size_t a = 0; a < serial.size(); ++a) {
    for (std::size_t b = 0; b < serial.size(); ++b) {
      if (a != b) {
        EXPECT_FALSE(serial[a].begin < serial[b].end &&
                     serial[b].begin < serial[a].end);
      }
    }
  }
}

}  // namespace
}  // namespace usw
