#pragma once

// The model fluid-flow application of Sec III: the 3D variable-coefficient
// Burgers equation, discretized with backward differences (advection),
// central differences (diffusion), and forward Euler in time, on the unit
// cube with the exact product solution phi(x,t)phi(y,t)phi(z,t) as initial
// and Dirichlet boundary condition.
//
// Timestep task graph (the paper's workload):
//   1. "advance"  - the offloadable Burgers stencil (Algorithm 1):
//                   requires u(old, 1 ghost), computes u(new);
//   2. "boundary" - MPE task writing the analytic boundary values into the
//                   domain-boundary halo of u(new) for the next step;
//   3. "u_max"    - reduction of max|u| (the delT-style reduction that
//                   exercises scheduler step 3d).

#include "runtime/application.h"

namespace usw::apps::burgers {

class BurgersApp : public runtime::Application {
 public:
  struct Config {
    bool use_ieee_exp = false;            ///< Sec VI-C library choice
    grid::IntVec tile_shape{16, 16, 8};   ///< Sec VI-A tile size
    double cfl_safety = 0.25;             ///< fraction of the stability limit
    /// Synthetic per-tile load skew (uswsim --hotspot): tiles whose center
    /// falls inside a sphere around the domain center cost this factor in
    /// the virtual-time model (1.0 = uniform). Physics is unchanged; the
    /// skew exists to exercise the tile scheduling policies.
    double hotspot_factor = 1.0;
    /// Hotspot sphere radius as a fraction of the domain extent (the
    /// normalized distance from the domain center below which a tile is
    /// "hot"). Only meaningful when hotspot_factor != 1.0.
    double hotspot_radius = 0.25;
  };

  BurgersApp() = default;
  explicit BurgersApp(Config config) : config_(config) {}

  std::string name() const override { return "burgers3d"; }
  void build_init_graph(task::TaskGraph& graph,
                        const grid::Level& level) const override;
  void build_step_graph(task::TaskGraph& graph,
                        const grid::Level& level) const override;
  double fixed_dt(const grid::Level& level) const override;
  void on_rank_complete(const task::TaskContext& ctx, comm::Comm& comm,
                        std::span<const int> my_patches,
                        std::map<std::string, double>& metrics) const override;

  /// The solution variable "u".
  static const var::VarLabel* u_label();
  /// The reduction result "u_max".
  static const var::VarLabel* umax_label();

 private:
  Config config_{};
};

}  // namespace usw::apps::burgers
