#include "kern/fastexp.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace usw::kern {
namespace {

// ln2 split into a high part exact in double and a low correction, so the
// range reduction r = x - k*ln2 stays accurate.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kInvLn2 = 1.44269504088896338700e+00;

// exp(x) overflows above ln(DBL_MAX) and rounds to zero below ln(2^-1075),
// half the smallest subnormal.
constexpr double kOverflowArg = 7.09782712893383973096e+02;
constexpr double kUnderflowArg = -7.45133219101941108420e+02;

/// 2^k for integer k in [-1022, 1023] via exponent-field construction.
inline double pow2i(int k) {
  const std::uint64_t bits = static_cast<std::uint64_t>(k + 1023) << 52;
  return std::bit_cast<double>(bits);
}

/// Degree-9 Taylor polynomial of exp on |r| <= ln2/2 (Horner form);
/// truncation error < 1e-11 relative on that interval.
inline double exp_poly(double r) {
  double p = 1.0 / 362880.0;           // 1/9!
  p = p * r + 1.0 / 40320.0;           // 1/8!
  p = p * r + 1.0 / 5040.0;            // 1/7!
  p = p * r + 1.0 / 720.0;             // 1/6!
  p = p * r + 1.0 / 120.0;             // 1/5!
  p = p * r + 1.0 / 24.0;              // 1/4!
  p = p * r + 1.0 / 6.0;               // 1/3!
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  return p;
}

}  // namespace

double exp_ieee(double x) { return std::exp(x); }

double exp_fast(double x) {
  if (std::isnan(x)) return x;
  if (x > kOverflowArg) return std::numeric_limits<double>::infinity();
  if (x < kUnderflowArg) return 0.0;
  const int k = static_cast<int>(std::lround(x * kInvLn2));
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  const double p = exp_poly(r);
  // Split the scaling in two normal powers of two where 2^k alone would
  // overflow (k = 1024) or the product may be subnormal (k < -1021).
  if (k >= -1021 && k <= 1023) return p * pow2i(k);
  return p * pow2i(k / 2) * pow2i(k - k / 2);
}

}  // namespace usw::kern
