#pragma once

// Software exponentials (Sec VI-C).
//
// SW26010 has no hardware exp instruction; the paper picks the fast,
// non-IEEE-conforming vendor library over the slow conforming one and
// accepts a small accuracy loss. This module reproduces that choice:
//
//   * exp_ieee - the accurate reference (std::exp),
//   * exp_fast - a range-reduction + degree-9 polynomial approximation
//                with relative error < 3e-11 over the normal double range.
//
// Tests pin the accuracy bound; benchmarks charge different virtual-time
// costs for the two libraries via MachineParams::cpe_exp_*.

namespace usw::kern {

/// IEEE-conforming exponential (the "slow library").
double exp_ieee(double x);

/// Fast non-conforming exponential: relative error < 3e-11 wherever the
/// result is a normal double (x >= about -708.39). Returns +inf above
/// ln(DBL_MAX) ~ 709.78 and 0 below ~ -745.13, where exp(x) rounds to zero;
/// in between the results are finite, subnormal below ~ -708.39. Does not
/// honor signaling NaN semantics or set floating-point flags.
double exp_fast(double x);

}  // namespace usw::kern
