#pragma once

// A second application on the same runtime: 3D heat diffusion
//   u_t = alpha * laplacian(u)
// with the exact separable solution
//   u(x,y,z,t) = exp(-3 alpha pi^2 t) sin(pi x) sin(pi y) sin(pi z)
// as initial condition, Dirichlet boundary values, and verification
// reference.
//
// The app exists to demonstrate that the public API is not Burgers-shaped:
// a different kernel (7-point, exponential-free), a different reduction
// (L2 norm), and a different operation mix flow through the identical
// task/scheduler machinery.

#include "runtime/application.h"

namespace usw::apps::heat {

class HeatApp : public runtime::Application {
 public:
  struct Config {
    double alpha = 0.1;                  ///< diffusivity
    /// Same LDM budget as the Burgers tile: 1 ghosted field in + 1 out of
    /// 16x16x8 cells is ~42 KB of the 64 KB scratch pad.
    grid::IntVec tile_shape{16, 16, 8};
    double cfl_safety = 0.25;
    /// Diffusion sub-steps chained *within* one timestep (1 or 2). With 2,
    /// each stage advances dt/2 through an intermediate variable whose
    /// freshly computed halo is exchanged mid-step — the new-DW ghost
    /// dependency path of the task graph, including same-step MPI.
    int stages = 1;
    /// Explicit timestep; 0 = derive from the stability limit.
    double dt_override = 0.0;
  };

  HeatApp() = default;
  explicit HeatApp(Config config) : config_(config) {}

  std::string name() const override { return "heat3d"; }
  void build_init_graph(task::TaskGraph& graph,
                        const grid::Level& level) const override;
  void build_step_graph(task::TaskGraph& graph,
                        const grid::Level& level) const override;
  double fixed_dt(const grid::Level& level) const override;
  void on_rank_complete(const task::TaskContext& ctx, comm::Comm& comm,
                        std::span<const int> my_patches,
                        std::map<std::string, double>& metrics) const override;

  static const var::VarLabel* t_label();
  static const var::VarLabel* half_label();  ///< stage-1 output (stages == 2)
  static const var::VarLabel* norm_label();

  /// Exact solution used for init/boundary/verification.
  double exact(double x, double y, double z, double t) const;

 private:
  std::unique_ptr<task::Task> make_boundary_task(const std::string& name,
                                                 const var::VarLabel* label,
                                                 double time_frac) const;

  Config config_{};
};

}  // namespace usw::apps::heat
