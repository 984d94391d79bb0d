#include "apps/burgers/kernels.h"

#include <cmath>

#include "apps/burgers/phi.h"
#include "kern/fastexp.h"
#include "kern/simd4.h"

namespace usw::apps::burgers {
namespace {

using kern::FieldView;
using kern::KernelEnv;
using kern::Vec4;

/// What Algorithm 1 divides by: the cell spacings and their squares.
struct Divisors {
  double x, y, z, xx, yy, zz;

  explicit Divisors(const KernelEnv& env)
      : x(env.dx), y(env.dy), z(env.dz), xx(env.dx * env.dx),
        yy(env.dy * env.dy), zz(env.dz * env.dz) {}

  /// Whether every divisor is a power of two whose reciprocal is a double:
  /// then x * (1/d) rounds the same real number as x / d, so multiplying
  /// by the reciprocals gives the same bits with six fewer divisions per
  /// cell. True on every Table III grid (spacing 1/N, N a power of two).
  bool exact_reciprocals() const {
    for (const double d : {x, y, z, xx, yy, zz}) {
      int exponent = 0;
      if (std::frexp(d, &exponent) != 0.5 || !std::isfinite(1.0 / d))
        return false;
    }
    return true;
  }

  Divisors reciprocals() const {
    Divisors r = *this;
    for (double* d : {&r.x, &r.y, &r.z, &r.xx, &r.yy, &r.zz}) *d = 1.0 / *d;
    return r;
  }
};

/// v / d, or v * d where d already holds the exact reciprocal.
template <bool kReciprocal, typename T>
USW_ALWAYS_INLINE T over(T v, T d) {
  if constexpr (kReciprocal)
    return v * d;
  else
    return v / d;
}

/// One cell of Algorithm 1, shared by the scalar kernel and the SIMD
/// epilogue so remainders match the vector lanes bit-for-bit. `d` holds
/// the divisors, or their reciprocals under kReciprocal.
template <bool kReciprocal>
USW_ALWAYS_INLINE void cell(const KernelEnv& env, const FieldView& u0,
                            const FieldView& u1, int i, int j, int k,
                            double phi_x, double phi_y, double phi_z,
                            const Divisors& d) {
  const double u = *u0.ptr(i, j, k);
  const double u_dudx = over<kReciprocal>(phi_x * (*u0.ptr(i - 1, j, k) - u), d.x);
  const double u_dudy = over<kReciprocal>(phi_y * (*u0.ptr(i, j - 1, k) - u), d.y);
  const double u_dudz = over<kReciprocal>(phi_z * (*u0.ptr(i, j, k - 1) - u), d.z);
  // Parenthesized to match the SIMD variant's vmad(-2,u, uxm+uxp) rounding
  // exactly, so scalar and vector runs agree bit-for-bit.
  const double d2udx2 = over<kReciprocal>(
      -2.0 * u + (*u0.ptr(i - 1, j, k) + *u0.ptr(i + 1, j, k)), d.xx);
  const double d2udy2 = over<kReciprocal>(
      -2.0 * u + (*u0.ptr(i, j - 1, k) + *u0.ptr(i, j + 1, k)), d.yy);
  const double d2udz2 = over<kReciprocal>(
      -2.0 * u + (*u0.ptr(i, j, k - 1) + *u0.ptr(i, j, k + 1)), d.zz);
  const double du =
      (u_dudx + u_dudy + u_dudz) + kViscosity * (d2udx2 + d2udy2 + d2udz2);
  *u1.ptr(i, j, k) = u + env.dt * du;
}

template <bool kReciprocal>
void scalar_loop(const KernelEnv& env, const FieldView& u0, const FieldView& u1,
                 const grid::Box& region, const PhiAxes& phi, const Divisors& d) {
  const grid::IntVec lo = region.lo;
  for (int k = lo.z; k < region.hi.z; ++k)
    for (int j = lo.y; j < region.hi.y; ++j)
      for (int i = lo.x; i < region.hi.x; ++i)
        cell<kReciprocal>(env, u0, u1, i, j, k, phi.x[i - lo.x],
                          phi.y[j - lo.y], phi.z[k - lo.z], d);
}

void scalar_kernel(const KernelEnv& env, const FieldView& u0,
                   const FieldView& u1, const grid::Box& region,
                   const PhiAxes& phi) {
  const Divisors d(env);
  if (d.exact_reciprocals())
    scalar_loop<true>(env, u0, u1, region, phi, d.reciprocals());
  else
    scalar_loop<false>(env, u0, u1, region, phi, d);
}

/// Vectorized along x with width 4 (Algorithm 2): the x phi factors load
/// from the table, the y/z factors are broadcast, and a scalar epilogue
/// handles the remainder cells.
template <bool kReciprocal>
USW_ALWAYS_INLINE void simd_loop(const KernelEnv& env, const FieldView& u0,
                                 const FieldView& u1, const grid::Box& region,
                                 const PhiAxes& phi, const Divisors& d) {
  const grid::IntVec lo = region.lo;
  const Vec4 vdx = Vec4::broadcast(d.x);
  const Vec4 vdy = Vec4::broadcast(d.y);
  const Vec4 vdz = Vec4::broadcast(d.z);
  const Vec4 vdx2 = Vec4::broadcast(d.xx);
  const Vec4 vdy2 = Vec4::broadcast(d.yy);
  const Vec4 vdz2 = Vec4::broadcast(d.zz);
  const Vec4 vnu = Vec4::broadcast(kViscosity);
  const Vec4 vdt = Vec4::broadcast(env.dt);
  const Vec4 vm2 = Vec4::broadcast(-2.0);

  for (int k = lo.z; k < region.hi.z; ++k) {
    const Vec4 phi_z = Vec4::broadcast(phi.z[k - lo.z]);
    for (int j = lo.y; j < region.hi.y; ++j) {
      const Vec4 phi_y = Vec4::broadcast(phi.y[j - lo.y]);
      int i = lo.x;
      for (; i + 4 <= region.hi.x; i += 4) {
        const Vec4 phi_x = Vec4::loadu(&phi.x[i - lo.x]);
        const Vec4 u = Vec4::loadu(u0.ptr(i, j, k));
        const Vec4 uxm = Vec4::loadu(u0.ptr(i - 1, j, k));
        const Vec4 uxp = Vec4::loadu(u0.ptr(i + 1, j, k));
        const Vec4 uym = Vec4::loadu(u0.ptr(i, j - 1, k));
        const Vec4 uyp = Vec4::loadu(u0.ptr(i, j + 1, k));
        const Vec4 uzm = Vec4::loadu(u0.ptr(i, j, k - 1));
        const Vec4 uzp = Vec4::loadu(u0.ptr(i, j, k + 1));

        const Vec4 u_dudx = over<kReciprocal>(Vec4::vmuld(phi_x, (uxm - u)), vdx);
        const Vec4 u_dudy = over<kReciprocal>(Vec4::vmuld(phi_y, (uym - u)), vdy);
        const Vec4 u_dudz = over<kReciprocal>(Vec4::vmuld(phi_z, (uzm - u)), vdz);
        const Vec4 d2udx2 = over<kReciprocal>(Vec4::vmad(vm2, u, uxm + uxp), vdx2);
        const Vec4 d2udy2 = over<kReciprocal>(Vec4::vmad(vm2, u, uym + uyp), vdy2);
        const Vec4 d2udz2 = over<kReciprocal>(Vec4::vmad(vm2, u, uzm + uzp), vdz2);
        const Vec4 du = (u_dudx + u_dudy + u_dudz) +
                        Vec4::vmuld(vnu, (d2udx2 + d2udy2 + d2udz2));
        Vec4::vmad(vdt, du, u).storeu(u1.ptr(i, j, k));
      }
      for (; i < region.hi.x; ++i)
        cell<kReciprocal>(env, u0, u1, i, j, k, phi.x[i - lo.x],
                          phi.y[j - lo.y], phi.z[k - lo.z], d);
    }
  }
}

/// Built for AVX2 and for the baseline ISA (USW_SIMD_CLONES): on an AVX2
/// host each Vec4 is one 256-bit register instead of two SSE2 halves.
USW_SIMD_CLONES void simd_kernel(const KernelEnv& env, const FieldView& u0,
                                 const FieldView& u1, const grid::Box& region,
                                 const PhiAxes& phi) {
  const Divisors d(env);
  if (d.exact_reciprocals())
    simd_loop<true>(env, u0, u1, region, phi, d.reciprocals());
  else
    simd_loop<false>(env, u0, u1, region, phi, d);
}

}  // namespace

hw::KernelCost burgers_kernel_cost() {
  hw::KernelCost c;
  c.flops_per_cell = 83.0;
  c.exps_per_cell = 6.0;
  c.divs_per_cell = 9.0;
  c.bytes_read_per_cell = 8.0;
  c.bytes_written_per_cell = 8.0;
  return c;
}

kern::KernelVariants make_burgers_kernel(bool use_ieee_exp,
                                         grid::IntVec tile_shape) {
  kern::KernelVariants kv;
  kv.cost = burgers_kernel_cost();
  kv.ghost = 1;
  kv.tile_shape = tile_shape;
  kv.use_ieee_exp = use_ieee_exp;
  // The paper's kernel evaluates the three phi factors per cell (six
  // exponentials, as burgers_kernel_cost() charges in virtual time). Each
  // depends on one coordinate only, so every call evaluates them once per
  // coordinate of its region with the same scalar phi.
  double (*const exp_fn)(double) =
      use_ieee_exp ? kern::exp_ieee : kern::exp_fast;
  kv.scalar = [exp_fn](const KernelEnv& env, const FieldView& in,
                       const FieldView& out, const grid::Box& region) {
    scalar_kernel(env, in, out, region,
                  PhiAxes(region, env.dx, env.dy, env.dz, env.time, exp_fn));
  };
  kv.simd = [exp_fn](const KernelEnv& env, const FieldView& in,
                     const FieldView& out, const grid::Box& region) {
    simd_kernel(env, in, out, region,
                PhiAxes(region, env.dx, env.dy, env.dz, env.time, exp_fn));
  };
  return kv;
}

}  // namespace usw::apps::burgers
