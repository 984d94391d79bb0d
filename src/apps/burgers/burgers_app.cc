#include "apps/burgers/burgers_app.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "apps/burgers/kernels.h"
#include "apps/burgers/phi.h"
#include "kern/fastexp.h"
#include "support/error.h"

namespace usw::apps::burgers {
namespace {

/// Operation mix of one analytic phi*phi*phi fill per cell: on a slab or a
/// full box, two of the three phi factors are hoisted out of the inner
/// loop, leaving one 2-exp phi call plus two multiplies per cell.
hw::KernelCost analytic_cost() {
  hw::KernelCost c;
  c.flops_per_cell = 21.0;
  c.exps_per_cell = 2.0;
  c.divs_per_cell = 1.0;
  c.bytes_written_per_cell = 8.0;
  return c;
}

/// Fills `region` of `u` with the exact solution at time `t`.
void fill_exact(var::CCVariable<double>& u, const grid::Level& level,
                const grid::Box& region, double t) {
  const PhiAxes phi(region, level.dx(), level.dy(), level.dz(), t,
                    kern::exp_ieee);
  const grid::IntVec lo = region.lo;
  for (int k = lo.z; k < region.hi.z; ++k) {
    const double pz = phi.z[k - lo.z];
    for (int j = lo.y; j < region.hi.y; ++j) {
      const double py = phi.y[j - lo.y];
      for (int i = lo.x; i < region.hi.x; ++i)
        u(i, j, k) = phi.x[i - lo.x] * py * pz;
    }
  }
}

/// At most one slab per side of a box, held without the heap.
struct Slabs {
  std::array<grid::Box, 6> box;
  int n = 0;
  const grid::Box* begin() const { return box.data(); }
  const grid::Box* end() const { return box.data() + n; }
};

/// Domain-boundary slabs of the patch's ghosted box (regions the halo
/// exchange cannot fill because there is no neighbor).
Slabs boundary_slabs(const grid::Level& level, const grid::Patch& patch,
                     int ghost) {
  Slabs out;
  const grid::Box domain = level.domain();
  const grid::Box g = patch.ghosted(ghost);
  for (int axis = 0; axis < 3; ++axis) {
    if (g.lo[axis] < domain.lo[axis]) {
      grid::Box& slab = out.box[static_cast<std::size_t>(out.n++)];
      slab = g;
      slab.hi[axis] = domain.lo[axis];
    }
    if (g.hi[axis] > domain.hi[axis]) {
      grid::Box& slab = out.box[static_cast<std::size_t>(out.n++)];
      slab = g;
      slab.lo[axis] = domain.hi[axis];
    }
  }
  // Slabs from different axes overlap at corners; that is harmless (the
  // same analytic value is written twice) and keeps the geometry simple.
  return out;
}

}  // namespace

const var::VarLabel* BurgersApp::u_label() { return var::VarLabel::create("u"); }
const var::VarLabel* BurgersApp::umax_label() {
  return var::VarLabel::create("u_max");
}

void BurgersApp::build_init_graph(task::TaskGraph& graph,
                                  const grid::Level& level) const {
  (void)level;
  auto init = task::Task::make_mpe(
      "initialize",
      [](const task::TaskContext& ctx, const grid::Patch& patch) -> TimePs {
        var::DataWarehouse& dw = *ctx.new_dw;
        const int ghost = dw.ghost_of(u_label(), patch.id());
        const grid::Box region = patch.ghosted(ghost);
        if (ctx.functional)
          fill_exact(dw.get(u_label(), patch.id()), *ctx.level, region, 0.0);
        return ctx.cost->mpe_compute(
            static_cast<std::uint64_t>(region.volume()), analytic_cost());
      });
  init->add_computes(u_label());
  graph.add(std::move(init));
}

void BurgersApp::build_step_graph(task::TaskGraph& graph,
                                  const grid::Level& level) const {
  kern::KernelVariants kernel =
      make_burgers_kernel(config_.use_ieee_exp, config_.tile_shape);
  if (config_.hotspot_factor != 1.0) {
    // Tiles whose center lies within hotspot_radius (normalized) of the
    // domain center cost hotspot_factor x in the virtual-time model. This
    // skews the per-tile cost distribution without touching the numerics,
    // so static z-partitions leave CPEs idle while dynamic policies don't.
    const double factor = config_.hotspot_factor;
    const double radius = config_.hotspot_radius;
    const grid::Box domain = level.domain();
    kernel.tile_cost_scale = [domain, factor, radius](const grid::Box& tile) {
      double d2 = 0.0;
      for (int axis = 0; axis < 3; ++axis) {
        const double extent =
            static_cast<double>(domain.hi[axis] - domain.lo[axis]);
        const double center = 0.5 * (tile.lo[axis] + tile.hi[axis]);
        const double t = (center - domain.lo[axis]) / extent - 0.5;
        d2 += t * t;
      }
      return d2 <= radius * radius ? factor : 1.0;
    };
  }
  graph.add(task::Task::make_stencil("advance", u_label(), u_label(),
                                     std::move(kernel)));

  auto boundary = task::Task::make_mpe(
      "boundary",
      [](const task::TaskContext& ctx, const grid::Patch& patch) -> TimePs {
        var::DataWarehouse& dw = *ctx.new_dw;
        const int ghost = dw.ghost_of(u_label(), patch.id());
        std::uint64_t cells = 0;
        for (const grid::Box& slab : boundary_slabs(*ctx.level, patch, ghost)) {
          cells += static_cast<std::uint64_t>(slab.volume());
          if (ctx.functional)
            fill_exact(dw.get(u_label(), patch.id()), *ctx.level, slab,
                       ctx.time + ctx.dt);
        }
        return ctx.cost->mpe_compute(cells, analytic_cost());
      });
  boundary->add_modifies(u_label());
  graph.add(std::move(boundary));

  auto reduce = task::Task::make_reduction(
      "u_max", umax_label(), task::ReduceOp::kMax,
      [](const task::TaskContext& ctx, const grid::Patch& patch) -> double {
        const var::CCVariable<double>& u = ctx.new_dw->get(u_label(), patch.id());
        // Four running maxima break the serial dependency chain of one.
        // std::max skips a NaN the same way in every lane, and the maximum
        // of the rest does not depend on the order, so the value is
        // bit-identical to a single chain.
        constexpr double kLow = -std::numeric_limits<double>::infinity();
        double m[4] = {kLow, kLow, kLow, kLow};
        const grid::Box& cells = patch.cells();
        USW_ASSERT(u.box().contains(cells));
        const int nx = cells.hi.x - cells.lo.x;
        for (int k = cells.lo.z; k < cells.hi.z; ++k)
          for (int j = cells.lo.y; j < cells.hi.y; ++j) {
            const double* row = &u(cells.lo.x, j, k);
            int i = 0;
            for (; i + 4 <= nx; i += 4)
              for (int l = 0; l < 4; ++l)
                m[l] = std::max(m[l], std::abs(row[i + l]));
            for (; i < nx; ++i) m[0] = std::max(m[0], std::abs(row[i]));
          }
        return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
      });
  reduce->add_requires(u_label(), task::WhichDW::kNew, 0);
  graph.add(std::move(reduce));
}

double BurgersApp::fixed_dt(const grid::Level& level) const {
  // Forward Euler stability: advection (|phi| <= 1) and diffusion limits.
  const double h = std::min({level.dx(), level.dy(), level.dz()});
  const double adv_limit = h;
  const double diff_limit = h * h / (6.0 * kViscosity);
  return config_.cfl_safety * std::min(adv_limit, diff_limit);
}

void BurgersApp::on_rank_complete(const task::TaskContext& ctx,
                                  comm::Comm& comm,
                                  std::span<const int> my_patches,
                                  std::map<std::string, double>& metrics) const {
  if (!ctx.functional) return;
  // After the final swap the old DW holds the last computed solution at
  // ctx.time; compare against the exact product solution.
  double linf = 0.0;
  double l2sum = 0.0;
  double cells = 0.0;
  for (int pid : my_patches) {
    const var::CCVariable<double>& u = ctx.old_dw->get(u_label(), pid);
    const grid::Box interior = ctx.level->patch(pid).cells();
    const PhiAxes phi(interior, ctx.level->dx(), ctx.level->dy(),
                      ctx.level->dz(), ctx.time, kern::exp_ieee);
    const grid::IntVec lo = interior.lo;
    for (int k = lo.z; k < interior.hi.z; ++k)
      for (int j = lo.y; j < interior.hi.y; ++j)
        for (int i = lo.x; i < interior.hi.x; ++i) {
          const double exact =
              phi.x[i - lo.x] * phi.y[j - lo.y] * phi.z[k - lo.z];
          const double err = u(i, j, k) - exact;
          linf = std::max(linf, std::abs(err));
          l2sum += err * err;
          cells += 1.0;
        }
  }
  linf = comm.allreduce_max(linf);
  l2sum = comm.allreduce_sum(l2sum);
  cells = comm.allreduce_sum(cells);
  metrics["linf_error"] = linf;
  metrics["l2_error"] = std::sqrt(l2sum / cells);
  if (ctx.old_dw->has_reduction(umax_label()))
    metrics["u_max"] = ctx.old_dw->get_reduction(umax_label());
}

}  // namespace usw::apps::burgers
