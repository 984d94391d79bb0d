#pragma once

// User-facing task declarations (Uintah's coarse tasks, Sec II).
//
// An application describes its timestep as an ordered list of tasks. Each
// task declares what it *requires* (variable, which data warehouse, ghost
// depth) and what it *computes*; the task graph derives patch-level
// dependencies and MPI messages from those declarations (Fig 1/2).
//
// Three task flavors cover the paper's workload:
//   * stencil tasks  - the offloadable numerical kernels (run on the CPE
//                      cluster, or on the MPE in host mode);
//   * MPE tasks      - "other tasks such as ... small kernels" (Sec V-C 3d)
//                      that always run on the MPE, e.g. initialization;
//   * reduction tasks- per-patch local reductions combined with an
//                      MPI allreduce (Sec V-C 3d "MPI reduce tasks").

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "grid/level.h"
#include "kern/kernel.h"
#include "support/units.h"
#include "var/datawarehouse.h"
#include "var/varlabel.h"

namespace usw::task {

enum class WhichDW { kOld, kNew };

struct Requires {
  const var::VarLabel* label = nullptr;
  WhichDW dw = WhichDW::kOld;
  int ghost = 0;
};

struct Computes {
  const var::VarLabel* label = nullptr;
};

struct Modifies {
  const var::VarLabel* label = nullptr;
};

enum class ReduceOp { kSum, kMax };

/// Execution context handed to MPE actions and reduction bodies.
struct TaskContext {
  const grid::Level* level = nullptr;
  var::DataWarehouse* old_dw = nullptr;
  var::DataWarehouse* new_dw = nullptr;
  const hw::CostModel* cost = nullptr;  ///< for pricing MPE action work
  double time = 0.0;     ///< simulation time at the start of the step
  double dt = 0.0;       ///< timestep size
  int step = 0;          ///< timestep index
  bool functional = true;  ///< false in timing-only runs (skip data work)
};

/// MPE action: does the functional work for one patch and returns the MPE
/// virtual time it costs (0 for negligible bookkeeping work).
using MpeActionFn = std::function<TimePs(const TaskContext&, const grid::Patch&)>;

/// Reduction body: local contribution of one patch.
using ReductionFn = std::function<double(const TaskContext&, const grid::Patch&)>;

class Task {
 public:
  enum class Type { kStencil, kMpeAction, kReduction };

  /// Stencil task: reads `in` from `in_dw` with the kernel's ghost depth
  /// and computes `out` in the new DW. `in_dw == kNew` chains this stencil
  /// after the same-step producer of `in` (multi-stage timesteps, e.g.
  /// Runge-Kutta stages or smoother sweeps), including the remote exchange
  /// of the producer's freshly computed halo.
  static std::unique_ptr<Task> make_stencil(std::string name,
                                            const var::VarLabel* in,
                                            const var::VarLabel* out,
                                            kern::KernelVariants kernel,
                                            WhichDW in_dw = WhichDW::kOld);

  /// MPE-only task. Declare requires/computes afterwards as needed.
  static std::unique_ptr<Task> make_mpe(std::string name, MpeActionFn action);

  /// Reduction task: combines per-patch `local` values with `op` into the
  /// reduction variable `result` in the new DW. The local part is a
  /// whole-field scan executed by the MPE; `scan_cost` prices it per cell
  /// (default: ~25 effective cycles/cell, a scalar max/sum loop on the MPE).
  static std::unique_ptr<Task> make_reduction(std::string name,
                                              const var::VarLabel* result,
                                              ReduceOp op, ReductionFn local,
                                              hw::KernelCost scan_cost = default_scan_cost());

  static hw::KernelCost default_scan_cost() {
    hw::KernelCost c;
    c.flops_per_cell = 8.0;
    c.bytes_read_per_cell = 8.0;
    return c;
  }

  const hw::KernelCost& scan_cost() const { return scan_cost_; }

  const std::string& name() const { return name_; }
  Type type() const { return type_; }

  Task& add_requires(const var::VarLabel* label, WhichDW dw, int ghost);
  Task& add_computes(const var::VarLabel* label);
  /// Declares an in-place update of a new-DW variable (Uintah's
  /// "modifies"): this task runs after the variable's previous writer, and
  /// later same-step consumers run after this task.
  Task& add_modifies(const var::VarLabel* label);

  const std::vector<Requires>& requires_list() const { return requires_; }
  const std::vector<Computes>& computes_list() const { return computes_; }
  const std::vector<Modifies>& modifies_list() const { return modifies_; }

  // Stencil accessors.
  const kern::KernelVariants& kernel() const;
  const var::VarLabel* stencil_in() const { return stencil_in_; }
  const var::VarLabel* stencil_out() const { return stencil_out_; }
  WhichDW stencil_in_dw() const { return stencil_in_dw_; }

  // MPE-action accessor.
  const MpeActionFn& mpe_action() const;

  // Reduction accessors.
  const var::VarLabel* reduction_result() const { return reduction_result_; }
  ReduceOp reduce_op() const { return reduce_op_; }
  const ReductionFn& reduction_local() const;

 private:
  Task(std::string name, Type type) : name_(std::move(name)), type_(type) {}

  std::string name_;
  Type type_;
  std::vector<Requires> requires_;
  std::vector<Computes> computes_;
  std::vector<Modifies> modifies_;

  kern::KernelVariants kernel_;
  const var::VarLabel* stencil_in_ = nullptr;
  const var::VarLabel* stencil_out_ = nullptr;
  WhichDW stencil_in_dw_ = WhichDW::kOld;

  MpeActionFn mpe_action_;

  const var::VarLabel* reduction_result_ = nullptr;
  ReduceOp reduce_op_ = ReduceOp::kSum;
  ReductionFn reduction_local_;
  hw::KernelCost scan_cost_;
};

}  // namespace usw::task
