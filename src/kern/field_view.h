#pragma once

// Non-owning 3D view over field data, addressed by *global* cell indices.
//
// Kernels are written once against FieldView and run unchanged on the
// data-warehouse variables it views: over a whole patch on the MPE, or
// over a CPE's share of tiles in a CPE body. Layout is x-fastest, matching
// the SIMD direction of the vectorized kernels.

#include <cstddef>

#include "grid/box.h"
#include "var/ccvariable.h"

namespace usw::kern {

class FieldView {
 public:
  FieldView() = default;

  /// Views `data` as covering `box` (row-major, x-fastest).
  FieldView(double* data, const grid::Box& box) : data_(data), box_(box) {
    const grid::IntVec s = box.size();
    sx_ = 1;
    sy_ = static_cast<std::ptrdiff_t>(s.x);
    sz_ = static_cast<std::ptrdiff_t>(s.x) * s.y;
  }

  /// Views a whole CCVariable.
  static FieldView of(var::CCVariable<double>& v) {
    return FieldView(v.data().data(), v.box());
  }

  bool valid() const { return data_ != nullptr; }

  /// Unchecked pointer to (i,j,k) for inner loops (bounds are the caller's
  /// responsibility).
  double* ptr(int i, int j, int k) const { return data_ + offset(i, j, k); }

 private:
  std::ptrdiff_t offset(int i, int j, int k) const {
    return (i - box_.lo.x) + sy_ * (j - box_.lo.y) + sz_ * (k - box_.lo.z);
  }

  double* data_ = nullptr;
  grid::Box box_;
  std::ptrdiff_t sx_ = 1, sy_ = 0, sz_ = 0;
};

}  // namespace usw::kern
