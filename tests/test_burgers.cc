// Tests of the Burgers model problem: phi properties, exactness of the
// product solution, kernel correctness (scalar == SIMD == a per-cell
// reference, bit-for-bit), golden end-to-end numerics, convergence under
// mesh refinement, and boundary handling.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "apps/burgers/phi.h"
#include "io/archive.h"
#include "runtime/controller.h"
#include "support/rng.h"
#include "support/test_helpers.h"

namespace usw::apps::burgers {
namespace {

TEST(Phi, MatchesDirectThreeExpFormula) {
  // The max-reduction trick must not change the value (up to roundoff).
  SplitMix64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.next_in(-0.2, 1.2);
    const double t = rng.next_in(0.0, 0.5);
    const double nu = kViscosity;
    const double a = -0.05 * (x - 0.5 + 4.95 * t) / nu;
    const double b = -0.25 * (x - 0.5 + 0.75 * t) / nu;
    const double c = -0.50 * (x - 0.375) / nu;
    // Direct evaluation overflows for large arguments; restrict the check.
    if (std::max({a, b, c}) > 600) continue;
    const double direct = (0.1 * std::exp(a) + 0.5 * std::exp(b) + std::exp(c)) /
                          (std::exp(a) + std::exp(b) + std::exp(c));
    EXPECT_NEAR(phi_ieee(x, t), direct, 1e-12);
  }
}

TEST(Phi, BoundedByItsWeights) {
  // phi is a convex combination of {0.1, 0.5, 1.0}.
  SplitMix64 rng(9);
  for (int i = 0; i < 5000; ++i) {
    const double v = phi_ieee(rng.next_in(-1.0, 2.0), rng.next_in(0.0, 1.0));
    EXPECT_GE(v, 0.1 - 1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Phi, FastAndIeeeAgree) {
  SplitMix64 rng(4);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.next_in(0.0, 1.0);
    const double t = rng.next_in(0.0, 0.2);
    EXPECT_NEAR(phi_fast(x, t), phi_ieee(x, t), 1e-9);
  }
}

TEST(Phi, SolvesOneDimensionalBurgers) {
  // phi_t + phi*phi_x = nu*phi_xx, checked with central differences. The
  // finite-difference residual of the true solution is O(h^2).
  const double h = 1e-5;
  for (const double x : {0.3, 0.45, 0.55, 0.7}) {
    for (const double t : {0.05, 0.1, 0.2}) {
      const double pt =
          (phi_ieee(x, t + h) - phi_ieee(x, t - h)) / (2 * h);
      const double px =
          (phi_ieee(x + h, t) - phi_ieee(x - h, t)) / (2 * h);
      const double pxx = (phi_ieee(x + h, t) - 2 * phi_ieee(x, t) +
                          phi_ieee(x - h, t)) /
                         (h * h);
      const double residual = pt + phi_ieee(x, t) * px - kViscosity * pxx;
      EXPECT_NEAR(residual, 0.0, 2e-2) << "x=" << x << " t=" << t;
    }
  }
}

TEST(ExactSolution, SatisfiesModelPde) {
  // u = phi(x)phi(y)phi(z) must satisfy equation (1):
  // u_t = -phi(x)u_x - phi(y)u_y - phi(z)u_z + nu*laplacian(u).
  const double h = 1e-5;
  auto u = [](double x, double y, double z, double t) {
    return exact_solution(x, y, z, t);
  };
  for (const double x : {0.3, 0.6}) {
    for (const double y : {0.4, 0.55}) {
      const double z = 0.5, t = 0.1;
      const double ut = (u(x, y, z, t + h) - u(x, y, z, t - h)) / (2 * h);
      const double ux = (u(x + h, y, z, t) - u(x - h, y, z, t)) / (2 * h);
      const double uy = (u(x, y + h, z, t) - u(x, y - h, z, t)) / (2 * h);
      const double uz = (u(x, y, z + h, t) - u(x, y, z - h, t)) / (2 * h);
      const double lap = (u(x + h, y, z, t) - 2 * u(x, y, z, t) + u(x - h, y, z, t) +
                          u(x, y + h, z, t) - 2 * u(x, y, z, t) + u(x, y - h, z, t) +
                          u(x, y, z + h, t) - 2 * u(x, y, z, t) + u(x, y, z - h, t)) /
                         (h * h);
      const double rhs = -phi_ieee(x, t) * ux - phi_ieee(y, t) * uy -
                         phi_ieee(z, t) * uz + kViscosity * lap;
      EXPECT_NEAR(ut, rhs, 5e-2);
    }
  }
}

TEST(BurgersKernel, ScalarAndSimdBitwiseIdentical) {
  const grid::Box region{{0, 0, 0}, {19, 6, 5}};  // width 19: SIMD remainder
  const grid::Box ghosted = region.grown(1);
  var::CCVariable<double> u0(ghosted), u_scalar(region), u_simd(region);
  SplitMix64 rng(12);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);

  kern::KernelEnv env;
  env.time = 0.05;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 32;
  const kern::KernelVariants kv = make_burgers_kernel(false);
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(u_scalar), region);
  kv.simd(env, kern::FieldView::of(u0), kern::FieldView::of(u_simd), region);
  for (std::size_t i = 0; i < u_scalar.data().size(); ++i)
    ASSERT_EQ(u_scalar.data()[i], u_simd.data()[i]) << "element " << i;
}

TEST(BurgersKernel, IeeeVariantsAlsoBitwiseIdentical) {
  const grid::Box region{{0, 0, 0}, {9, 4, 4}};
  const grid::Box ghosted = region.grown(1);
  var::CCVariable<double> u0(ghosted), a(region), b(region);
  SplitMix64 rng(14);
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);
  kern::KernelEnv env;
  env.time = 0.01;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 16;
  const kern::KernelVariants kv = make_burgers_kernel(true);
  kv.scalar(env, kern::FieldView::of(u0), kern::FieldView::of(a), region);
  kv.simd(env, kern::FieldView::of(u0), kern::FieldView::of(b), region);
  for (std::size_t i = 0; i < a.data().size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]);
}

/// One cell of Algorithm 1 with phi evaluated at the cell's own
/// coordinates, written out independently of the kernels' phi tables.
double reference_cell(const kern::KernelEnv& env,
                      const var::CCVariable<double>& u0, int i, int j, int k,
                      bool ieee_exp) {
  auto exp_fn = [ieee_exp](double v) {
    return ieee_exp ? kern::exp_ieee(v) : kern::exp_fast(v);
  };
  const double dx = env.dx, dy = env.dy, dz = env.dz;
  const double u = u0(i, j, k);
  const double u_dudx =
      phi(i * dx, env.time, exp_fn) * (u0(i - 1, j, k) - u) / dx;
  const double u_dudy =
      phi(j * dy, env.time, exp_fn) * (u0(i, j - 1, k) - u) / dy;
  const double u_dudz =
      phi(k * dz, env.time, exp_fn) * (u0(i, j, k - 1) - u) / dz;
  const double d2udx2 =
      (-2.0 * u + (u0(i - 1, j, k) + u0(i + 1, j, k))) / (dx * dx);
  const double d2udy2 =
      (-2.0 * u + (u0(i, j - 1, k) + u0(i, j + 1, k))) / (dy * dy);
  const double d2udz2 =
      (-2.0 * u + (u0(i, j, k - 1) + u0(i, j, k + 1))) / (dz * dz);
  const double du =
      (u_dudx + u_dudy + u_dudz) + kViscosity * (d2udx2 + d2udy2 + d2udz2);
  return u + env.dt * du;
}

TEST(BurgersKernel, OffsetRegionsMatchPerCellReference) {
  // Regions away from the origin catch a phi lookup indexed by the global
  // cell index instead of its offset in the region: the first has lo.x not
  // a multiple of 4 and a SIMD remainder of 2, the second is a full LDM
  // tile.
  const grid::Box regions[] = {{{5, 3, 2}, {27, 9, 7}},
                               {{16, 32, 8}, {32, 48, 16}}};
  kern::KernelEnv env;
  env.time = 0.05;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 64;
  SplitMix64 rng(21);
  for (const bool ieee_exp : {false, true}) {
    SCOPED_TRACE(ieee_exp ? "IEEE exp" : "fast exp");
    const kern::KernelVariants kv = make_burgers_kernel(ieee_exp);
    for (const grid::Box& region : regions) {
      var::CCVariable<double> u0(region.grown(1)), scalar(region), simd(region);
      for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);
      const kern::FieldView in = kern::FieldView::of(u0);
      kv.scalar(env, in, kern::FieldView::of(scalar), region);
      kv.simd(env, in, kern::FieldView::of(simd), region);
      for (int k = region.lo.z; k < region.hi.z; ++k)
        for (int j = region.lo.y; j < region.hi.y; ++j)
          for (int i = region.lo.x; i < region.hi.x; ++i) {
            const double want = reference_cell(env, u0, i, j, k, ieee_exp);
            ASSERT_EQ(scalar(i, j, k), want) << "scalar at " << i << "," << j
                                             << "," << k;
            ASSERT_EQ(simd(i, j, k), want) << "simd at " << i << "," << j
                                           << "," << k;
          }
    }
  }
}

TEST(BurgersKernel, ReciprocalAndDivisionPathsMatchDivisionReference) {
  // The kernels multiply by 1/dx, 1/(dx*dx), ... when every divisor is a
  // power of two (spacing 1/16), and divide otherwise (spacing 1/20). Both
  // must give the division form's bits. The region is 22 cells wide, so
  // the SIMD epilogue computes two cells per row.
  const grid::Box region{{1, 2, 3}, {23, 18, 15}};
  SplitMix64 rng(23);
  var::CCVariable<double> u0(region.grown(1));
  for (double& x : u0.data()) x = rng.next_in(0.0, 1.0);
  const kern::KernelVariants kv = make_burgers_kernel(false);
  for (const double h : {1.0 / 16, 1.0 / 20}) {
    SCOPED_TRACE("spacing " + std::to_string(h));
    kern::KernelEnv env;
    env.time = 0.05;
    env.dt = 1e-4;
    env.dx = env.dy = env.dz = h;
    var::CCVariable<double> scalar(region), simd(region);
    const kern::FieldView in = kern::FieldView::of(u0);
    kv.scalar(env, in, kern::FieldView::of(scalar), region);
    kv.simd(env, in, kern::FieldView::of(simd), region);
    for (int k = region.lo.z; k < region.hi.z; ++k)
      for (int j = region.lo.y; j < region.hi.y; ++j)
        for (int i = region.lo.x; i < region.hi.x; ++i) {
          const double want = reference_cell(env, u0, i, j, k, false);
          ASSERT_EQ(scalar(i, j, k), want) << "scalar at " << i << "," << j
                                           << "," << k;
          ASSERT_EQ(simd(i, j, k), want) << "simd at " << i << "," << j
                                         << "," << k;
        }
  }
}

TEST(BurgersKernel, CostDeclarationMatchesPaperScale) {
  const hw::KernelCost c = burgers_kernel_cost();
  EXPECT_DOUBLE_EQ(c.exps_per_cell, 6.0);
  // Counted flops/cell ~308 vs the paper's 299-311, with the exponentials
  // contributing 216 of them (paper: ~215).
  EXPECT_NEAR(c.counted_flops_per_cell(), 311.0, 5.0);
  EXPECT_NEAR(c.exps_per_cell * hw::KernelCost::kFlopsPerExp, 215.0, 2.0);
}

double solve_and_get_linf(grid::IntVec layout, grid::IntVec patch, int steps,
                          double cfl = 0.25) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem(layout, patch);
  cfg.variant = runtime::variant_by_name("acc_simd.async");
  cfg.nranks = 2;
  cfg.timesteps = steps;
  cfg.storage = var::StorageMode::kFunctional;
  BurgersApp::Config app_cfg;
  app_cfg.cfl_safety = cfl;
  BurgersApp app(app_cfg);
  const auto result = runtime::run_simulation(cfg, app);
  return result.ranks[0].metrics.at("linf_error");
}

/// FNV-1a over the bits of every cell of every field the archive saved at
/// its latest step: each label in save order, each patch, each cell of the
/// ghosted box in storage order.
std::uint64_t final_field_hash(const std::string& dir, int npatches) {
  const io::Archive archive(dir);
  const int step = archive.latest_step().value();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& label : archive.read_index().labels)
    for (int p = 0; p < npatches; ++p) {
      // Named: a range-for over the temporary's data() would read the
      // field after it is destroyed.
      const var::CCVariable<double> field = archive.read_field(step, label, p);
      for (const double v : field.data()) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int byte = 0; byte < 8; ++byte)
          h = (h ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  return h;
}

/// One line of tests/data/burgers_numerics.txt: the case, then linf_error,
/// l2_error and u_max as hexfloats and the final field's hash, on a 2x3x2
/// layout of 22x13x10 patches (partial LDM tiles and SIMD remainder
/// columns), 3 ranks, 4 steps. The third column names where the CPE bodies
/// ran, always "serial" (inside each spawn) since there is one backend.
std::string numerics_line(const std::string& variant, bool ieee_exp) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "usw_burgers_numerics";
  fs::remove_all(dir);
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 3, 2}, {22, 13, 10});
  cfg.variant = runtime::variant_by_name(variant);
  cfg.nranks = 3;
  cfg.timesteps = 4;
  cfg.storage = var::StorageMode::kFunctional;
  cfg.output_dir = dir;
  cfg.output_interval = cfg.timesteps;
  BurgersApp::Config app_cfg;
  app_cfg.use_ieee_exp = ieee_exp;
  const auto result = runtime::run_simulation(cfg, BurgersApp(app_cfg));
  const std::map<std::string, double>& m = result.ranks[0].metrics;
  const std::uint64_t cells = final_field_hash(dir, 2 * 3 * 2);
  fs::remove_all(dir);
  char line[256];
  std::snprintf(line, sizeof line, "%s %s serial %a %a %a %016llx", variant.c_str(),
                ieee_exp ? "ieee" : "fast",
                m.at("linf_error"), m.at("l2_error"), m.at("u_max"),
                static_cast<unsigned long long>(cells));
  return line;
}

TEST(BurgersSolver, NumericsMatchGoldenFile) {
  // Recorded from the per-cell phi implementation (the cell hashes later,
  // from bit-identical kernels); any change to the kernels, the boundary
  // fill, the reduction or the error check that is not bit-exact moves one
  // of these values, and a last-bit change in any cell moves its hash.
  std::ifstream in(USW_TEST_DATA_DIR "/burgers_numerics.txt");
  ASSERT_TRUE(in) << "missing tests/data/burgers_numerics.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') want.push_back(line);

  std::vector<std::string> got;
  for (const runtime::Variant& v : runtime::all_variants())
    for (const bool ieee_exp : {false, true})
      got.push_back(numerics_line(v.name, ieee_exp));

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(got[i] == want[i])
        << "line " << i << ": " << test::first_difference(got[i], want[i]);
}

TEST(BurgersSolver, ErrorShrinksUnderRefinement) {
  // First-order scheme: halving h (and the CFL-scaled dt) should roughly
  // halve the error at a fixed physical time. We compare errors after
  // integrating to the same simulated time.
  // coarse: 16^3 grid, dt ~ cfl*h^2/(6nu); fine: 32^3 grid.
  const double coarse = solve_and_get_linf({2, 2, 2}, {8, 8, 8}, 8);
  const double fine = solve_and_get_linf({2, 2, 2}, {16, 16, 16}, 32);
  EXPECT_LT(fine, coarse);
}

TEST(BurgersSolver, SolutionStaysWithinPhiBounds) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  cfg.variant = runtime::variant_by_name("acc.sync");
  cfg.nranks = 1;
  cfg.timesteps = 10;
  cfg.storage = var::StorageMode::kFunctional;
  BurgersApp app;
  const auto result = runtime::run_simulation(cfg, app);
  const double umax = result.ranks[0].metrics.at("u_max");
  // u = product of three phi in [0.1, 1]: bounds 0.001 .. 1 (+ small
  // numerical overshoot).
  EXPECT_GT(umax, 0.001);
  EXPECT_LT(umax, 1.02);
}

TEST(BurgersApp, DtRespectsStabilityLimits) {
  BurgersApp app;
  const grid::Level level({2, 2, 2}, {16, 16, 16});
  const double dt = app.fixed_dt(level);
  const double h = 1.0 / 32;
  EXPECT_LE(dt, h * h / (6.0 * kViscosity));
  EXPECT_GT(dt, 0.0);
}

TEST(BurgersApp, GraphShape) {
  BurgersApp app;
  const grid::Level level({2, 1, 1}, {8, 8, 8});
  task::TaskGraph step;
  app.build_step_graph(step, level);
  ASSERT_EQ(step.tasks().size(), 3u);
  EXPECT_EQ(step.tasks()[0]->name(), "advance");
  EXPECT_EQ(step.tasks()[0]->type(), task::Task::Type::kStencil);
  EXPECT_EQ(step.tasks()[1]->name(), "boundary");
  EXPECT_EQ(step.tasks()[2]->type(), task::Task::Type::kReduction);
  task::TaskGraph init;
  app.build_init_graph(init, level);
  ASSERT_EQ(init.tasks().size(), 1u);
}

}  // namespace
}  // namespace usw::apps::burgers
