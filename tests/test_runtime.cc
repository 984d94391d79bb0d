// Integration tests of the runtime layer: configuration validation,
// variant/problem catalogs, cross-rank-count solution invariance and result
// aggregation. End-to-end determinism is a row of test_contracts.cc.

#include <gtest/gtest.h>

#include "apps/burgers/burgers_app.h"
#include "runtime/controller.h"

namespace usw::runtime {
namespace {

TEST(Variants, CatalogMatchesTableIV) {
  const auto vs = all_variants();
  ASSERT_EQ(vs.size(), 5u);
  EXPECT_EQ(vs[0].name, "host.sync");
  EXPECT_EQ(vs[0].mode, sched::SchedulerMode::kMpeOnly);
  EXPECT_FALSE(vs[0].vectorize);
  EXPECT_EQ(vs[2].name, "acc_simd.sync");
  EXPECT_EQ(vs[2].mode, sched::SchedulerMode::kSyncMpeCpe);
  EXPECT_TRUE(vs[2].vectorize);
  EXPECT_EQ(vs[4].name, "acc_simd.async");
  EXPECT_EQ(vs[4].mode, sched::SchedulerMode::kAsyncMpeCpe);
  EXPECT_TRUE(vs[4].vectorize);
  EXPECT_THROW(variant_by_name("warp.speed"), ConfigError);
}

TEST(Problems, CatalogMatchesTableIII) {
  const auto ps = paper_problems();
  ASSERT_EQ(ps.size(), 7u);
  EXPECT_EQ(ps.front().name, "16x16x512");
  EXPECT_EQ(ps.front().grid_size(), (grid::IntVec{128, 128, 1024}));
  EXPECT_EQ(ps.front().memory_bytes(), 256ull * 1024 * 1024);
  EXPECT_EQ(ps.front().min_cgs, 1);
  EXPECT_EQ(ps.back().name, "128x128x512");
  EXPECT_EQ(ps.back().grid_size(), (grid::IntVec{1024, 1024, 1024}));
  EXPECT_EQ(ps.back().memory_bytes(), 16ull * 1024 * 1024 * 1024);
  EXPECT_EQ(ps.back().min_cgs, 8);
  for (const auto& p : ps) EXPECT_EQ(p.num_patches(), 128);
  EXPECT_THROW(problem_by_name("1x1x1"), ConfigError);
}

TEST(RunConfig, Validation) {
  apps::burgers::BurgersApp app;
  RunConfig cfg;
  cfg.problem = tiny_problem({2, 1, 1}, {8, 8, 8});
  cfg.variant = variant_by_name("acc.sync");

  cfg.nranks = 0;
  EXPECT_THROW(run_simulation(cfg, app), ConfigError);
  cfg.nranks = 3;  // more ranks than the 2 patches
  EXPECT_THROW(run_simulation(cfg, app), ConfigError);
  cfg.nranks = 1;
  cfg.timesteps = -1;
  EXPECT_THROW(run_simulation(cfg, app), ConfigError);

  // Functional storage of a 16 GiB problem is refused.
  cfg.timesteps = 1;
  cfg.problem = problem_by_name("128x128x512");
  cfg.nranks = 8;
  cfg.storage = var::StorageMode::kFunctional;
  EXPECT_THROW(run_simulation(cfg, app), ConfigError);
}

TEST(RunSimulation, SolutionIndependentOfRankCount) {
  apps::burgers::BurgersApp app;
  double reference_linf = 0.0;
  for (int ranks : {1, 2, 4, 8}) {
    RunConfig cfg;
    cfg.problem = tiny_problem({2, 2, 2}, {8, 8, 8});
    cfg.variant = variant_by_name("acc_simd.async");
    cfg.nranks = ranks;
    cfg.timesteps = 5;
    cfg.storage = var::StorageMode::kFunctional;
    const RunResult result = run_simulation(cfg, app);
    const double linf = result.ranks[0].metrics.at("linf_error");
    if (ranks == 1)
      reference_linf = linf;
    else
      EXPECT_EQ(linf, reference_linf) << ranks << " ranks";
  }
}

TEST(RunSimulation, PartitionPolicyDoesNotChangePhysics) {
  apps::burgers::BurgersApp app;
  RunConfig cfg;
  cfg.problem = tiny_problem({4, 2, 1}, {8, 8, 8});
  cfg.variant = variant_by_name("acc.async");
  cfg.nranks = 4;
  cfg.timesteps = 4;
  cfg.storage = var::StorageMode::kFunctional;
  cfg.partition = grid::PartitionPolicy::kBlock;
  const double block = run_simulation(cfg, app).ranks[0].metrics.at("linf_error");
  cfg.partition = grid::PartitionPolicy::kRoundRobin;
  const double rr = run_simulation(cfg, app).ranks[0].metrics.at("linf_error");
  EXPECT_EQ(block, rr);
}

TEST(RunSimulation, RoundRobinCommunicatesMoreThanBlock) {
  apps::burgers::BurgersApp app;
  RunConfig cfg;
  cfg.problem = tiny_problem({4, 4, 1}, {8, 8, 8});
  cfg.variant = variant_by_name("acc.async");
  cfg.nranks = 4;
  cfg.timesteps = 3;
  cfg.storage = var::StorageMode::kTimingOnly;
  cfg.partition = grid::PartitionPolicy::kBlock;
  const auto block = run_simulation(cfg, app).merged_counters();
  cfg.partition = grid::PartitionPolicy::kRoundRobin;
  const auto rr = run_simulation(cfg, app).merged_counters();
  EXPECT_GT(rr.bytes_sent, block.bytes_sent);
}

TEST(RunResult, AggregationHelpers) {
  apps::burgers::BurgersApp app;
  RunConfig cfg;
  cfg.problem = tiny_problem({2, 2, 1}, {8, 8, 8});
  cfg.variant = variant_by_name("acc.sync");
  cfg.nranks = 2;
  cfg.timesteps = 3;
  cfg.storage = var::StorageMode::kTimingOnly;
  const RunResult result = run_simulation(cfg, app);
  ASSERT_EQ(result.ranks.size(), 2u);
  ASSERT_EQ(result.timesteps, 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_GE(result.step_wall(s),
              result.ranks[0].step_walls[static_cast<std::size_t>(s)]);
    EXPECT_GE(result.step_wall(s),
              result.ranks[1].step_walls[static_cast<std::size_t>(s)]);
  }
  EXPECT_GT(result.mean_step_wall(), 0);
  EXPECT_GT(result.total_counted_flops(), 0.0);
  EXPECT_GT(result.achieved_gflops(), 0.0);
  EXPECT_GT(result.ranks[0].init_wall, 0);
}

TEST(RunSimulation, ZeroTimestepsRunsInitOnly) {
  apps::burgers::BurgersApp app;
  RunConfig cfg;
  cfg.problem = tiny_problem({2, 1, 1}, {8, 8, 8});
  cfg.variant = variant_by_name("acc.sync");
  cfg.nranks = 1;
  cfg.timesteps = 0;
  cfg.storage = var::StorageMode::kFunctional;
  const RunResult result = run_simulation(cfg, app);
  EXPECT_EQ(result.timesteps, 0);
  EXPECT_GT(result.ranks[0].init_wall, 0);
}

TEST(RunSimulation, TeardownUnderWatchdog) {
  // A watchdog fire mid-run must cancel every rank and leave the process
  // able to run the next simulation.
  apps::burgers::BurgersApp app;
  RunConfig cfg;
  cfg.problem = tiny_problem({2, 2, 1}, {8, 8, 8});
  cfg.variant = variant_by_name("acc_simd.async");
  cfg.nranks = 4;
  cfg.timesteps = 3;
  cfg.storage = var::StorageMode::kTimingOnly;
  cfg.diag.hang_threshold = kMicrosecond;  // any real step blows 1 us
  cfg.diag.dump_path.clear();
  try {
    run_simulation(cfg, app);
    FAIL() << "watchdog did not fire";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("hang watchdog"), std::string::npos);
  }
  // Clean teardown: the identical config without the watchdog completes.
  cfg.diag.hang_threshold = 0;
  const RunResult ok = run_simulation(cfg, app);
  EXPECT_EQ(static_cast<int>(ok.ranks[0].step_walls.size()), cfg.timesteps);
}

}  // namespace
}  // namespace usw::runtime
