#pragma once

// Portable 4-wide double vector mirroring the SW26010 SIMD intrinsics used
// in the paper's vectorized kernel (Algorithm 2): SIMD_LOADU / SIMD_LOADE /
// SIMD_VMAD / SIMD_VMULD and friends.
//
// On GCC/Clang this is a 256-bit vector-extension type: a pair of SSE2
// halves on baseline x86-64, one AVX register in a function compiled for
// AVX2 (USW_SIMD_CLONES); elsewhere it degrades to a plain array. Kernels
// written with Vec4 are the "acc_simd" variants; their numerical results
// must match the scalar variants bit-for-bit for the operations used here
// (verified by tests), since both perform the same IEEE double operations.

#include <cstddef>

/// Inlined into every caller, even unoptimized, so a USW_SIMD_CLONES
/// function compiles it for each of its targets and never passes a Vec4
/// across a call between code built for different ISAs.
#if defined(__GNUC__) || defined(__clang__)
#define USW_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define USW_ALWAYS_INLINE inline
#endif

/// Compiles the function it marks twice, for AVX2 and for the baseline
/// ISA, and picks one when the program loads (function multiversioning).
/// The avx2 target enables no FMA and the build allows no reassociation,
/// so both clones perform the same IEEE operations in the same order and
/// give the same bits. Clang does not multiversion templates: mark a plain
/// function and force-inline (USW_ALWAYS_INLINE) the templated loop into
/// it. Expands to nothing off x86-64 ELF GCC/Clang, and under
/// ThreadSanitizer: the compiler instruments the clones' ifunc resolver,
/// which the loader runs before the sanitizer's runtime is initialized,
/// so the process would crash at load.
#if defined(__SANITIZE_THREAD__)
#define USW_NO_IFUNC 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define USW_NO_IFUNC 1
#endif
#endif
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(USW_NO_IFUNC)
#define USW_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define USW_SIMD_CLONES
#endif

namespace usw::kern {

#if defined(__GNUC__) || defined(__clang__)
#define USW_HAVE_VECTOR_EXT 1
#endif

struct Vec4 {
#ifdef USW_HAVE_VECTOR_EXT
  using native = double __attribute__((vector_size(32)));
  native v;
  USW_ALWAYS_INLINE Vec4() : v{0.0, 0.0, 0.0, 0.0} {}
  USW_ALWAYS_INLINE explicit Vec4(native n) : v(n) {}
  USW_ALWAYS_INLINE Vec4(double a, double b, double c, double d) : v{a, b, c, d} {}
  USW_ALWAYS_INLINE double operator[](int i) const { return v[i]; }
#else
  double v[4];
  Vec4() : v{0.0, 0.0, 0.0, 0.0} {}
  Vec4(double a, double b, double c, double d) : v{a, b, c, d} {}
  double operator[](int i) const { return v[i]; }
#endif

  /// SIMD_LOADE: broadcast one scalar to all lanes.
  USW_ALWAYS_INLINE static Vec4 broadcast(double x) { return Vec4{x, x, x, x}; }

  /// SIMD_LOADU: unaligned load of 4 consecutive doubles.
  USW_ALWAYS_INLINE static Vec4 loadu(const double* p) {
    return Vec4{p[0], p[1], p[2], p[3]};
  }

  /// Unaligned store.
  USW_ALWAYS_INLINE void storeu(double* p) const {
    p[0] = (*this)[0];
    p[1] = (*this)[1];
    p[2] = (*this)[2];
    p[3] = (*this)[3];
  }

#ifdef USW_HAVE_VECTOR_EXT
  USW_ALWAYS_INLINE friend Vec4 operator+(Vec4 a, Vec4 b) { return Vec4(a.v + b.v); }
  USW_ALWAYS_INLINE friend Vec4 operator-(Vec4 a, Vec4 b) { return Vec4(a.v - b.v); }
  USW_ALWAYS_INLINE friend Vec4 operator*(Vec4 a, Vec4 b) { return Vec4(a.v * b.v); }
  USW_ALWAYS_INLINE friend Vec4 operator/(Vec4 a, Vec4 b) { return Vec4(a.v / b.v); }
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
  USW_ALWAYS_INLINE static Vec4 vmad(Vec4 a, Vec4 b, Vec4 c) { return a * b + c; }

  /// SIMD_VMULD.
  USW_ALWAYS_INLINE static Vec4 vmuld(Vec4 a, Vec4 b) { return a * b; }
};

}  // namespace usw::kern
