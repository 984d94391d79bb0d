// Tests of the advection application: exact-solution translation, solver
// convergence, CFL stability bound, variant agreement, and mass behavior.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/advect/advect_app.h"
#include "runtime/controller.h"

namespace usw::apps::advect {
namespace {

runtime::RunResult run_advect(const std::string& variant, int ranks, int steps,
                              grid::IntVec layout, grid::IntVec patch,
                              AdvectApp::Config app_cfg = {}) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem(layout, patch);
  cfg.variant = runtime::variant_by_name(variant);
  cfg.nranks = ranks;
  cfg.timesteps = steps;
  cfg.storage = var::StorageMode::kFunctional;
  app_cfg.tile_shape = {8, 8, 8};
  AdvectApp app(app_cfg);
  return runtime::run_simulation(cfg, app);
}

TEST(AdvectApp, ExactSolutionTranslates) {
  const AdvectApp::Config c;
  const AdvectApp app(c);
  // The pulse value at a point equals the initial value at the
  // back-translated point.
  const double t = 0.25;
  EXPECT_NEAR(app.exact(0.3 + c.vx * t, 0.3 + c.vy * t, 0.3 + c.vz * t, t),
              app.exact(0.3, 0.3, 0.3, 0.0), 1e-14);
  EXPECT_NEAR(app.exact(0.3, 0.3, 0.3, 0.0), 1.0, 1e-14);
}

TEST(AdvectApp, DtRespectsCfl) {
  const AdvectApp::Config c;
  const AdvectApp app(c);
  const grid::Level level({2, 2, 2}, {12, 12, 12});
  const double dt = app.fixed_dt(level);
  EXPECT_LE(dt * (c.vx / level.dx() + c.vy / level.dy() + c.vz / level.dz()),
            c.cfl_safety + 1e-12);
}

TEST(AdvectApp, TracksExactSolution) {
  // A wide pulse (sigma = 0.18, ~4.3 cells) keeps first-order upwinding's
  // smearing moderate on this 24^3 grid.
  AdvectApp::Config cfg;
  cfg.pulse_width = 0.18;
  const auto result = run_advect("acc.async", 2, 20, {2, 2, 2}, {12, 12, 12}, cfg);
  EXPECT_LT(result.ranks[0].metrics.at("linf_error"), 0.2);
  EXPECT_GT(result.ranks[0].metrics.at("q_total"), 0.0);
}

TEST(AdvectApp, ErrorShrinksUnderRefinement) {
  // dt scales with h under CFL, so double resolution + double steps
  // reaches the same time with roughly half the error.
  const double coarse = run_advect("acc.sync", 1, 10, {2, 2, 2}, {6, 6, 6})
                            .ranks[0]
                            .metrics.at("linf_error");
  const double fine = run_advect("acc.sync", 1, 20, {2, 2, 2}, {12, 12, 12})
                          .ranks[0]
                          .metrics.at("linf_error");
  EXPECT_LT(fine, coarse);
}

TEST(AdvectApp, AllVariantsBitwiseIdentical) {
  const auto reference = run_advect("host.sync", 2, 8, {2, 2, 1}, {8, 8, 8});
  const double ref = reference.ranks[0].metrics.at("linf_error");
  for (const std::string v : {"acc.sync", "acc_simd.sync", "acc.async",
                              "acc_simd.async"}) {
    const auto result = run_advect(v, 2, 8, {2, 2, 1}, {8, 8, 8});
    EXPECT_EQ(result.ranks[0].metrics.at("linf_error"), ref) << v;
  }
}

TEST(AdvectApp, MultiRankMatchesSingleRank) {
  const auto one = run_advect("acc_simd.async", 1, 10, {2, 2, 2}, {8, 8, 8});
  const auto eight = run_advect("acc_simd.async", 8, 10, {2, 2, 2}, {8, 8, 8});
  EXPECT_EQ(one.ranks[0].metrics.at("linf_error"),
            eight.ranks[0].metrics.at("linf_error"));
  EXPECT_EQ(one.ranks[0].metrics.at("q_total"),
            eight.ranks[0].metrics.at("q_total"));
}

TEST(AdvectApp, SolutionStaysBounded) {
  // Upwinding within the CFL limit is monotone: no overshoot above the
  // initial maximum (1.0) beyond boundary-value roundoff.
  const auto result = run_advect("acc.async", 2, 30, {2, 2, 2}, {10, 10, 10});
  EXPECT_LT(result.ranks[0].metrics.at("linf_error"), 1.0);
  EXPECT_LT(result.ranks[0].metrics.at("q_total"),
            1.05 * 8000.0);  // can't create mass from a bounded pulse
}

}  // namespace
}  // namespace usw::apps::advect
