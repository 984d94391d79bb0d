#pragma once

// The Burgers kernel of Algorithm 1, in scalar and SIMD-vectorized form.
//
// Both variants perform identical IEEE double operations in identical
// order, so their results agree bit-for-bit (verified by tests) — the SIMD
// variant only changes how the work maps onto the (modeled) vector
// pipelines, exactly like the hand-vectorized Fortran of Algorithm 2. When
// every spacing and its square is a power of two, as on every Table III
// grid, both multiply by the exact reciprocals instead of dividing, which
// rounds the same real numbers; the SIMD variant runs 256 bits wide on an
// AVX2 host (kern/simd4.h). Neither changes a bit.
//
// Note on the sign of `du`: Algorithm 1 as printed negates the whole right
// side, which would flip the diffusion term's sign relative to equation (1)
// and make forward Euler unconditionally unstable. The backward-difference
// terms of lines 2-4 already carry the advection minus sign, so we take
//   du = (u_dudx + u_dudy + u_dudz) + nu * (d2udx2 + d2udy2 + d2udz2),
// which is consistent with equation (1) and converges to the exact product
// solution (verified by tests).

#include "hw/cost_model.h"
#include "kern/kernel.h"

namespace usw::apps::burgers {

/// Per-cell operation mix of the kernel (the input to Table I):
/// 83 declared flops + 9 divisions + 6 exponentials per cell, 16 bytes of
/// main-memory traffic — a counted total of ~308 flops/cell, matching the
/// paper's ~311 with ~215 contributed by the exponentials.
hw::KernelCost burgers_kernel_cost();

/// Builds the kernel variants: scalar, SIMD (width 4, x-direction), the
/// 16x16x8 LDM tile of Sec VI-A, and the chosen exponential library.
kern::KernelVariants make_burgers_kernel(bool use_ieee_exp = false,
                                         grid::IntVec tile_shape = {16, 16, 8});

}  // namespace usw::apps::burgers
