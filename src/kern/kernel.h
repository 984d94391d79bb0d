#pragma once

// Offloadable stencil kernel description.
//
// An application registers one KernelVariants per stencil task: functional
// implementations (scalar and, optionally, SIMD-vectorized) plus the
// per-cell operation mix for the cost model, the halo depth, and the LDM
// tile shape (Sec VI-A). The same functional code runs in every scheduler
// mode; only the region it computes (a patch, a CPE's z-slabs or a tile)
// and the charged virtual time differ.

#include <functional>

#include "grid/intvec.h"
#include "grid/level.h"
#include "grid/tiling.h"
#include "hw/cost_model.h"
#include "kern/field_view.h"

namespace usw::kern {

/// Per-invocation environment: simulation time and mesh geometry. Built by
/// the scheduler from the task context so kernels stay stateless and the
/// same KernelVariants can be shared read-only across ranks running
/// different timesteps concurrently.
struct KernelEnv {
  double time = 0.0;  ///< simulation time at the start of the step
  double dt = 0.0;
  double dx = 0.0;
  double dy = 0.0;
  double dz = 0.0;
};

/// Computes `region` of the output from the input and writes no other
/// output cell; the input view covers at least `region` grown by the
/// kernel's ghost depth. A cell's value does not depend on the region that
/// contains it, so a CPE body may compute its share's tiles in one call
/// over their union, and the MPE a whole patch. Output and input are
/// different variables: CPE bodies compute an offload's regions in place,
/// one after another in CPE-id order, so a region must not read what
/// another region writes or the result would depend on that order.
using StencilFn =
    std::function<void(const KernelEnv& env, const FieldView& in,
                       const FieldView& out, const grid::Box& region)>;

struct KernelVariants {
  StencilFn scalar;        ///< required
  StencilFn simd;          ///< optional; empty => scalar used for simd runs
  hw::KernelCost cost;     ///< per-cell operation mix (Table I input)
  int ghost = 1;           ///< halo layers the stencil reads
  grid::IntVec tile_shape{16, 16, 8};  ///< LDM tile (Sec VI-A)
  bool use_ieee_exp = false;  ///< pick the slow conforming exp library
  /// Optional per-patch work multiplier for spatially imbalanced physics;
  /// the cost model charges cost.scaled(cost_scale(patch)). Empty = 1.0.
  std::function<double(const grid::Patch&)> cost_scale;
  /// Optional per-tile work multiplier on top of cost_scale, keyed by the
  /// tile's interior box (e.g. a hotspot bubble where the physics converges
  /// slower). Must be a pure function of the box so every tile policy and
  /// scheduler mode charges identical costs. Empty = 1.0.
  std::function<double(const grid::Box&)> tile_cost_scale;

  bool has_simd() const { return static_cast<bool>(simd); }

  double scale_for(const grid::Patch& patch) const {
    return cost_scale ? cost_scale(patch) : 1.0;
  }

  double scale_for_tile(const grid::Box& tile) const {
    return tile_cost_scale ? tile_cost_scale(tile) : 1.0;
  }

  /// Cell-weighted mean of scale_for_tile over `tiling`'s tiles: the
  /// patch-level equivalent charged when the stencil runs untiled on the
  /// MPE, keeping counted flops identical across scheduler modes.
  double mean_tile_scale(const grid::Tiling& tiling) const {
    if (!tile_cost_scale) return 1.0;
    double weighted = 0.0;
    double cells = 0.0;
    for (int t = 0; t < tiling.num_tiles(); ++t) {
      const grid::Box tile = tiling.tile(t);
      const auto volume = static_cast<double>(tile.volume());
      weighted += scale_for_tile(tile) * volume;
      cells += volume;
    }
    return cells > 0.0 ? weighted / cells : 1.0;
  }

  const StencilFn& variant(bool vectorized) const {
    return (vectorized && has_simd()) ? simd : scalar;
  }
};

}  // namespace usw::kern
