#pragma once

// The coefficient/solution function phi of the model problem (Sec III):
//
//   phi(x,t) = (0.1 e^a + 0.5 e^b + e^c) / (e^a + e^b + e^c)
//   a = -0.05 (x - 0.5 + 4.95 t) / nu
//   b = -0.25 (x - 0.5 + 0.75 t) / nu
//   c = -0.50 (x - 0.375)        / nu ,   nu = 0.01
//
// phi solves the 1D viscous Burgers equation, and the product
// phi(x,t) phi(y,t) phi(z,t) is the exact solution of the 3D model
// equation (1) — used for the initial condition, the Dirichlet boundary
// values, and verification.
//
// As in the paper, the numerator and denominator are divided by the
// largest of e^a, e^b, e^c, reducing the exponential count per call from
// three to two. The kernel multiplies three phi factors per cell, so the
// paper's kernel does six exponentials per cell; that is what
// burgers_kernel_cost() charges in virtual time (Table I). Each factor
// depends on one coordinate only, so the host evaluates phi once per grid
// coordinate (phi_axis, PhiAxes) and the cells read it from those tables.
// phi is templated over the exponential implementation (fast or IEEE),
// mirroring the fast-exp / IEEE-exp kernel variants.

#include <vector>

#include "grid/box.h"
#include "kern/fastexp.h"

namespace usw::apps::burgers {

inline constexpr double kViscosity = 0.01;

/// phi at x: branches on the largest exponent and skips its exponential
/// (exp(0) == 1), so only two exponentials are evaluated per call.
template <typename ExpFn>
inline double phi(double x, double t, ExpFn&& exp_fn) {
  constexpr double inv_nu = 1.0 / kViscosity;
  const double a = -0.05 * (x - 0.5 + 4.95 * t) * inv_nu;
  const double b = -0.25 * (x - 0.5 + 0.75 * t) * inv_nu;
  const double c = -0.50 * (x - 0.375) * inv_nu;
  double ea, eb, ec;
  if (a >= b && a >= c) {
    ea = 1.0;
    eb = exp_fn(b - a);
    ec = exp_fn(c - a);
  } else if (b >= c) {
    eb = 1.0;
    ea = exp_fn(a - b);
    ec = exp_fn(c - b);
  } else {
    ec = 1.0;
    ea = exp_fn(a - c);
    eb = exp_fn(b - c);
  }
  return (0.1 * ea + 0.5 * eb + ec) / (ea + eb + ec);
}

/// phi at c*h for every grid coordinate c in [lo, hi), indexed by c - lo.
template <typename ExpFn>
std::vector<double> phi_axis(int lo, int hi, double h, double t,
                             ExpFn&& exp_fn) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(hi > lo ? hi - lo : 0));
  for (int c = lo; c < hi; ++c) out.push_back(phi(c * h, t, exp_fn));
  return out;
}

/// phi along the three axes of `box` (cell spacings dx, dy, dz) at time t,
/// each indexed by offset from box.lo.
struct PhiAxes {
  std::vector<double> x, y, z;

  template <typename ExpFn>
  PhiAxes(const grid::Box& box, double dx, double dy, double dz, double t,
          ExpFn&& exp_fn)
      : x(phi_axis(box.lo.x, box.hi.x, dx, t, exp_fn)),
        y(phi_axis(box.lo.y, box.hi.y, dy, t, exp_fn)),
        z(phi_axis(box.lo.z, box.hi.z, dz, t, exp_fn)) {}
};

/// phi with the fast exponential (the production configuration).
inline double phi_fast(double x, double t) {
  return phi(x, t, [](double v) { return kern::exp_fast(v); });
}

/// phi with the IEEE exponential (reference accuracy).
inline double phi_ieee(double x, double t) {
  return phi(x, t, [](double v) { return kern::exp_ieee(v); });
}

/// Exact solution of the 3D model problem.
inline double exact_solution(double x, double y, double z, double t) {
  return phi_ieee(x, t) * phi_ieee(y, t) * phi_ieee(z, t);
}

}  // namespace usw::apps::burgers
