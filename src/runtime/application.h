#pragma once

// Application interface: how a simulation component plugs into the runtime
// (Uintah's "simulation component" role, Sec II).
//
// An application contributes two task graphs — one-time initialization and
// the repeated timestep — plus its timestep size. Graphs are built once and
// shared read-only by all rank threads; any per-call state flows through
// the TaskContext.

#include <map>
#include <span>
#include <string>

#include "comm/comm.h"
#include "grid/level.h"
#include "task/graph.h"

namespace usw::runtime {

class Application {
 public:
  virtual ~Application() = default;

  virtual std::string name() const = 0;

  /// Tasks run once before timestepping (e.g. setting initial conditions).
  virtual void build_init_graph(task::TaskGraph& graph,
                                const grid::Level& level) const = 0;

  /// Tasks of one timestep.
  virtual void build_step_graph(task::TaskGraph& graph,
                                const grid::Level& level) const = 0;

  /// Timestep size (chosen for stability; Sec III).
  virtual double fixed_dt(const grid::Level& level) const = 0;

  /// Relative cost estimate of one patch for the load balancer
  /// (PartitionPolicy::kCostBalanced); uniform by default.
  virtual double patch_cost(const grid::Level& level,
                            const grid::Patch& patch) const {
    (void)level;
    (void)patch;
    return 1.0;
  }

  /// Next step's dt; default keeps it fixed. Called after each step with
  /// the completed step's new DW available via `ctx` (e.g. to read a
  /// stability reduction).
  virtual double next_dt(const task::TaskContext& ctx, double current_dt) const {
    (void)ctx;
    return current_dt;
  }

  /// Called per rank after the last step (functional runs): compute
  /// verification metrics (cross-rank reductions via `comm` are allowed —
  /// every rank must make matching calls). `ctx.old_dw` holds the final
  /// solution.
  virtual void on_rank_complete(const task::TaskContext& ctx, comm::Comm& comm,
                                std::span<const int> my_patches,
                                std::map<std::string, double>& metrics) const = 0;
};

}  // namespace usw::runtime
