// Tests of the heat application: exact-solution decay, solver convergence,
// scalar/SIMD agreement, and generality of the runtime across apps.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "apps/burgers/burgers_app.h"
#include "apps/heat/heat_app.h"
#include "runtime/controller.h"
#include "support/test_helpers.h"

namespace usw::apps::heat {
namespace {

runtime::RunResult run_heat(const std::string& variant, int ranks, int steps,
                            grid::IntVec layout, grid::IntVec patch) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem(layout, patch);
  cfg.variant = runtime::variant_by_name(variant);
  cfg.nranks = ranks;
  cfg.timesteps = steps;
  cfg.storage = var::StorageMode::kFunctional;
  HeatApp::Config app_cfg;
  app_cfg.tile_shape = {8, 8, 8};
  HeatApp app(app_cfg);
  return runtime::run_simulation(cfg, app);
}

TEST(HeatApp, ExactSolutionDecaysAtTheRightRate) {
  const HeatApp::Config c;
  const HeatApp app(c);
  constexpr double pi = std::numbers::pi;
  const double u0 = app.exact(0.5, 0.5, 0.5, 0.0);
  EXPECT_NEAR(u0, 1.0, 1e-12);  // sin(pi/2)^3
  const double t = 0.05;
  EXPECT_NEAR(app.exact(0.5, 0.5, 0.5, t),
              std::exp(-3 * c.alpha * pi * pi * t), 1e-12);
}

TEST(HeatApp, SolverTracksExactSolution) {
  const auto result = run_heat("acc.async", 2, 20, {2, 2, 2}, {12, 12, 12});
  const double linf = result.ranks[0].metrics.at("linf_error");
  EXPECT_LT(linf, 5e-3);
  EXPECT_GT(result.ranks[0].metrics.at("norm2"), 0.0);
}

TEST(HeatApp, ErrorShrinksUnderRefinement) {
  // dt scales with h^2, so 4x the steps at 2x resolution reaches the same
  // physical time with ~half (first order in dt, second in h) the error.
  const double coarse =
      run_heat("acc.sync", 1, 5, {2, 2, 2}, {6, 6, 6}).ranks[0].metrics.at("linf_error");
  const double fine =
      run_heat("acc.sync", 1, 20, {2, 2, 2}, {12, 12, 12}).ranks[0].metrics.at("linf_error");
  EXPECT_LT(fine, coarse);
}

TEST(HeatApp, AllVariantsBitwiseIdentical) {
  const auto reference = run_heat("host.sync", 2, 6, {2, 2, 1}, {8, 8, 8});
  const double ref = reference.ranks[0].metrics.at("linf_error");
  for (const std::string v : {"acc.sync", "acc_simd.sync", "acc_simd.async"}) {
    const auto result = run_heat(v, 2, 6, {2, 2, 1}, {8, 8, 8});
    EXPECT_EQ(result.ranks[0].metrics.at("linf_error"), ref) << v;
  }
}

TEST(HeatApp, MultiRankMatchesSingleRank) {
  const auto one = run_heat("acc.async", 1, 6, {2, 2, 2}, {8, 8, 8});
  const auto eight = run_heat("acc.async", 8, 6, {2, 2, 2}, {8, 8, 8});
  EXPECT_EQ(one.ranks[0].metrics.at("linf_error"),
            eight.ranks[0].metrics.at("linf_error"));
  EXPECT_EQ(one.ranks[0].metrics.at("norm2"),
            eight.ranks[0].metrics.at("norm2"));
}

TEST(HeatApp, NormDecreasesMonotonically) {
  // Diffusion with zero-ish boundaries dissipates the L2 norm; run twice
  // with different lengths and compare the final norms.
  const double short_run =
      run_heat("acc.sync", 1, 4, {2, 1, 1}, {8, 8, 8}).ranks[0].metrics.at("norm2");
  const double long_run =
      run_heat("acc.sync", 1, 12, {2, 1, 1}, {8, 8, 8}).ranks[0].metrics.at("norm2");
  EXPECT_LT(long_run, short_run);
}

TEST(HeatApp, KernelCostIsExpFree) {
  // The heat kernel must be much cheaper than Burgers on the CPE — it has
  // no exponentials. Indirectly: timing-only per-step wall is far smaller.
  runtime::RunConfig cfg;
  // Patches big enough that kernel time dominates the fixed overheads.
  cfg.problem = runtime::tiny_problem({2, 2, 2}, {32, 32, 64});
  cfg.variant = runtime::variant_by_name("acc.sync");
  cfg.nranks = 1;
  cfg.timesteps = 2;
  cfg.storage = var::StorageMode::kTimingOnly;
  HeatApp heat;
  const auto heat_result = runtime::run_simulation(cfg, heat);
  apps::burgers::BurgersApp burgers;
  const auto burgers_result = runtime::run_simulation(cfg, burgers);
  EXPECT_LT(heat_result.mean_step_wall(), burgers_result.mean_step_wall() / 3);
}

}  // namespace
}  // namespace usw::apps::heat

namespace usw::apps::heat {
namespace {

runtime::RunResult run_staged(int stages, int steps, double dt, int ranks,
                              const std::string& variant = "acc.async") {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 2}, {8, 8, 8});
  cfg.variant = runtime::variant_by_name(variant);
  cfg.nranks = ranks;
  cfg.timesteps = steps;
  cfg.storage = var::StorageMode::kFunctional;
  HeatApp::Config app_cfg;
  app_cfg.tile_shape = {8, 8, 8};
  app_cfg.stages = stages;
  app_cfg.dt_override = dt;
  HeatApp app(app_cfg);
  return runtime::run_simulation(cfg, app);
}

TEST(HeatAppStaged, TwoStagesEqualTwoHalfSteps) {
  // One two-stage step of size dt applies exactly the same two dt/2 kernel
  // updates (with the same mid-step boundary values) as two one-stage
  // steps of size dt/2 — so the final solutions must agree bit-for-bit.
  // This exercises the same-step new-DW halo path, including the remote
  // exchange of freshly computed stage-1 data.
  const double dt = 2e-5;
  const auto staged = run_staged(2, 3, dt, 4);
  const auto flat = run_staged(1, 6, dt / 2, 4);
  EXPECT_EQ(staged.ranks[0].metrics.at("linf_error"),
            flat.ranks[0].metrics.at("linf_error"));
  EXPECT_EQ(staged.ranks[0].metrics.at("norm2"),
            flat.ranks[0].metrics.at("norm2"));
}

TEST(HeatAppStaged, MultiRankMatchesSingleRank) {
  const double dt = 2e-5;
  const auto one = run_staged(2, 3, dt, 1);
  const auto eight = run_staged(2, 3, dt, 8);
  EXPECT_EQ(one.ranks[0].metrics.at("linf_error"),
            eight.ranks[0].metrics.at("linf_error"));
}

TEST(HeatAppStaged, AllVariantsAgree) {
  const double dt = 2e-5;
  const auto reference = run_staged(2, 2, dt, 2, "host.sync");
  for (const std::string v : {"acc.sync", "acc_simd.async"}) {
    const auto result = run_staged(2, 2, dt, 2, v);
    EXPECT_EQ(result.ranks[0].metrics.at("linf_error"),
              reference.ranks[0].metrics.at("linf_error"))
        << v;
  }
}

TEST(HeatAppStaged, StagedGraphHasSameStepRemoteSends) {
  // The two-stage graph must attach sends to the stage-1 chain (same-step
  // halo shipping), which the one-stage graph never has.
  HeatApp::Config cfg;
  cfg.stages = 2;
  HeatApp app(cfg);
  const grid::Level level({4, 1, 1}, {8, 8, 8});
  const grid::Partition part(level, 4, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level));
  task::TaskGraph graph;
  app.build_step_graph(graph, level);
  const task::CompiledGraph cg = graph.compile(level, part, 1);
  std::size_t task_sends = 0;
  for (const auto& dt : cg.tasks) task_sends += dt.sends.size();
  EXPECT_GT(task_sends, 0u);
}

}  // namespace
}  // namespace usw::apps::heat
