// Tests for kernel support: the 4-wide vector type, the fast exponential's
// accuracy contract, and field views.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "kern/fastexp.h"
#include "kern/field_view.h"
#include "kern/simd4.h"
#include "support/rng.h"

namespace usw::kern {
namespace {

TEST(Vec4, LaneArithmeticMatchesScalar) {
  const Vec4 a{1, 2, 3, 4}, b{5, 6, 7, 8};
  const Vec4 sum = a + b, prod = a * b, quot = b / a, diff = b - a;
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sum[i], a[i] + b[i]);
    EXPECT_DOUBLE_EQ(prod[i], a[i] * b[i]);
    EXPECT_DOUBLE_EQ(quot[i], b[i] / a[i]);
    EXPECT_DOUBLE_EQ(diff[i], b[i] - a[i]);
  }
}

TEST(Vec4, LoadStoreUnaligned) {
  double data[6] = {0, 1, 2, 3, 4, 5};
  const Vec4 v = Vec4::loadu(data + 1);
  EXPECT_DOUBLE_EQ(v[0], 1);
  EXPECT_DOUBLE_EQ(v[3], 4);
  double out[5] = {};
  v.storeu(out + 1);
  EXPECT_DOUBLE_EQ(out[0], 0);
  EXPECT_DOUBLE_EQ(out[1], 1);
  EXPECT_DOUBLE_EQ(out[4], 4);
}

TEST(Vec4, BroadcastAndVmad) {
  const Vec4 b = Vec4::broadcast(7.0);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(b[i], 7.0);
  const Vec4 fma = Vec4::vmad(Vec4{2, 2, 2, 2}, Vec4{3, 3, 3, 3}, Vec4{1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(fma[0], 7.0);
}

TEST(FastExp, AccuracyBoundOverWorkingRange) {
  // The advertised contract: relative error < 3e-11 for |x| <= 700.
  SplitMix64 rng(13);
  double worst = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_in(-700.0, 700.0);
    const double ref = std::exp(x);
    const double got = exp_fast(x);
    if (ref > 0 && std::isfinite(ref))
      worst = std::max(worst, std::abs(got - ref) / ref);
  }
  EXPECT_LT(worst, 3e-11);
}

TEST(FastExp, KernelArgumentRange) {
  // The phi() arguments in the Burgers kernel stay within about [-120, 0];
  // accuracy there must be excellent.
  SplitMix64 rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.next_in(-120.0, 0.0);
    EXPECT_NEAR(exp_fast(x) / std::exp(x), 1.0, 1e-11);
  }
}

TEST(FastExp, ExactAtZero) { EXPECT_EQ(exp_fast(0.0), 1.0); }

TEST(FastExp, EdgeCases) {
  EXPECT_EQ(exp_fast(-1000.0), 0.0);
  EXPECT_TRUE(std::isinf(exp_fast(1000.0)));
  EXPECT_TRUE(std::isnan(exp_fast(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isinf(exp_fast(std::numeric_limits<double>::infinity())));
  EXPECT_EQ(exp_fast(-std::numeric_limits<double>::infinity()), 0.0);
  // Near overflow: exp(709.5) ~ 1.35e308 is still finite.
  EXPECT_TRUE(std::isfinite(exp_fast(709.5)));
  EXPECT_NEAR(exp_fast(709.5) / std::exp(709.5), 1.0, 3e-11);
  // exp(-708.5) ~ 2.0e-308 lies just below DBL_MIN, where a subnormal
  // still carries ~52 bits: full relative accuracy, not 0.
  EXPECT_NEAR(exp_fast(-708.5) / std::exp(-708.5), 1.0, 3e-11);
  // exp(-740) ~ 4.2e-322 is subnormal, not zero.
  const double sub = exp_fast(-740.0);
  EXPECT_EQ(std::fpclassify(sub), FP_SUBNORMAL);
  EXPECT_NEAR(sub / std::exp(-740.0), 1.0, 1e-2);
}

TEST(ExpIeee, IsStdExp) { EXPECT_EQ(exp_ieee(2.0), std::exp(2.0)); }

TEST(FieldView, GlobalIndexAddressing) {
  std::vector<double> data(4 * 3 * 2, 0.0);
  FieldView v(data.data(), grid::Box{{10, 20, 30}, {14, 23, 32}});
  *v.ptr(10, 20, 30) = 1.0;
  *v.ptr(13, 22, 31) = 2.0;
  EXPECT_DOUBLE_EQ(data.front(), 1.0);
  EXPECT_DOUBLE_EQ(data.back(), 2.0);
  EXPECT_EQ(v.ptr(11, 20, 30) - v.ptr(10, 20, 30), 1);
  EXPECT_EQ(v.ptr(10, 21, 30) - v.ptr(10, 20, 30), 4);      // one x row
  EXPECT_EQ(v.ptr(10, 20, 31) - v.ptr(10, 20, 30), 4 * 3);  // one xy plane
}

TEST(FieldView, OfVariable) {
  var::CCVariable<double> cv(grid::Box{{0, 0, 0}, {4, 4, 4}});
  cv(2, 2, 2) = 8.0;
  const FieldView v = FieldView::of(cv);
  EXPECT_TRUE(v.valid());
  EXPECT_DOUBLE_EQ(*v.ptr(2, 2, 2), 8.0);
  EXPECT_FALSE(FieldView{}.valid());
}

}  // namespace
}  // namespace usw::kern
