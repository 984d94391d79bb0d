#pragma once

// Third application: linear advection of a scalar pulse,
//   u_t + a . grad(u) = 0,   a = const > 0 componentwise,
// discretized with first-order upwind differences and forward Euler. The
// exact solution is the translated initial profile,
//   u(x, t) = u0(x - a t),
// with a smooth Gaussian pulse as u0 and analytic Dirichlet boundaries.
//
// Together with Burgers (advection-diffusion, exponential-heavy) and heat
// (pure diffusion), this covers the third PDE character — pure hyperbolic
// transport — through the identical runtime machinery.

#include "runtime/application.h"

namespace usw::apps::advect {

class AdvectApp : public runtime::Application {
 public:
  struct Config {
    double vx = 0.8, vy = 0.6, vz = 0.4;  ///< advection velocity (positive)
    double pulse_width = 0.1;             ///< Gaussian sigma
    grid::IntVec tile_shape{16, 16, 8};
    double cfl_safety = 0.5;
    /// Work multiplier for patches near the initial pulse (mimicking e.g.
    /// chemistry that iterates harder where the field is active); 1.0 =
    /// uniform cost. Exercises the cost-balanced load balancer.
    double heavy_factor = 1.0;
  };

  AdvectApp() = default;
  explicit AdvectApp(Config config) : config_(config) {}

  std::string name() const override { return "advect3d"; }
  void build_init_graph(task::TaskGraph& graph,
                        const grid::Level& level) const override;
  void build_step_graph(task::TaskGraph& graph,
                        const grid::Level& level) const override;
  double fixed_dt(const grid::Level& level) const override;
  void on_rank_complete(const task::TaskContext& ctx, comm::Comm& comm,
                        std::span<const int> my_patches,
                        std::map<std::string, double>& metrics) const override;

  static const var::VarLabel* q_label();
  static const var::VarLabel* total_label();

  /// Exact solution: the initial Gaussian translated by a*t.
  double exact(double x, double y, double z, double t) const;

  /// True if `patch` lies within 2 sigma of the initial pulse center (the
  /// "heavy" region when heavy_factor > 1).
  bool is_heavy(const grid::Level& level, const grid::Patch& patch) const;

  double patch_cost(const grid::Level& level,
                    const grid::Patch& patch) const override;

 private:
  Config config_{};
};

}  // namespace usw::apps::advect
