#pragma once

// Portable 4-wide double vector mirroring the SW26010 SIMD intrinsics used
// in the paper's vectorized kernel (Algorithm 2): SIMD_LOADU / SIMD_LOADE /
// SIMD_VMAD / SIMD_VMULD and friends.
//
// On GCC/Clang this compiles to real 256-bit vector code via the vector
// extension; elsewhere it degrades to a plain array. Kernels written with
// Vec4 are the "acc_simd" variants; their numerical results must match the
// scalar variants bit-for-bit for the operations used here (verified by
// tests), since both perform the same IEEE double operations.

#include <cstddef>

namespace usw::kern {

#if defined(__GNUC__) || defined(__clang__)
#define USW_HAVE_VECTOR_EXT 1
#endif

struct Vec4 {
#ifdef USW_HAVE_VECTOR_EXT
  using native = double __attribute__((vector_size(32)));
  native v;
  Vec4() : v{0.0, 0.0, 0.0, 0.0} {}
  explicit Vec4(native n) : v(n) {}
  Vec4(double a, double b, double c, double d) : v{a, b, c, d} {}
  double operator[](int i) const { return v[i]; }
#else
  double v[4];
  Vec4() : v{0.0, 0.0, 0.0, 0.0} {}
  Vec4(double a, double b, double c, double d) : v{a, b, c, d} {}
  double operator[](int i) const { return v[i]; }
#endif

  /// SIMD_LOADE: broadcast one scalar to all lanes.
  static Vec4 broadcast(double x) { return Vec4{x, x, x, x}; }

  /// SIMD_LOADU: unaligned load of 4 consecutive doubles.
  static Vec4 loadu(const double* p) { return Vec4{p[0], p[1], p[2], p[3]}; }

  /// Unaligned store.
  void storeu(double* p) const {
    p[0] = (*this)[0];
    p[1] = (*this)[1];
    p[2] = (*this)[2];
    p[3] = (*this)[3];
  }

#ifdef USW_HAVE_VECTOR_EXT
  friend Vec4 operator+(Vec4 a, Vec4 b) { return Vec4(a.v + b.v); }
  friend Vec4 operator-(Vec4 a, Vec4 b) { return Vec4(a.v - b.v); }
  friend Vec4 operator*(Vec4 a, Vec4 b) { return Vec4(a.v * b.v); }
  friend Vec4 operator/(Vec4 a, Vec4 b) { return Vec4(a.v / b.v); }
#else
  friend Vec4 operator+(Vec4 a, Vec4 b) {
    return Vec4{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]};
  }
  friend Vec4 operator-(Vec4 a, Vec4 b) {
    return Vec4{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]};
  }
  friend Vec4 operator*(Vec4 a, Vec4 b) {
    return Vec4{a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]};
  }
  friend Vec4 operator/(Vec4 a, Vec4 b) {
    return Vec4{a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]};
  }
#endif

  /// SIMD_VMAD: a*b + c. Kept as separate multiply and add so results match
  /// the scalar kernels exactly (no fused rounding difference).
  static Vec4 vmad(Vec4 a, Vec4 b, Vec4 c) { return a * b + c; }

  /// SIMD_VMULD.
  static Vec4 vmuld(Vec4 a, Vec4 b) { return a * b; }
};

}  // namespace usw::kern
