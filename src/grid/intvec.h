#pragma once

// 3D integer index vector used for cells, patch extents, and layouts.

#include <cstdint>
#include <string>

#include "support/error.h"

namespace usw::grid {

struct IntVec {
  int x = 0;
  int y = 0;
  int z = 0;

  constexpr IntVec() = default;
  constexpr IntVec(int x_, int y_, int z_) : x(x_), y(y_), z(z_) {}

  constexpr int& operator[](int axis) { return axis == 0 ? x : (axis == 1 ? y : z); }
  constexpr int operator[](int axis) const { return axis == 0 ? x : (axis == 1 ? y : z); }

  friend constexpr IntVec operator+(IntVec a, IntVec b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
  friend constexpr IntVec operator-(IntVec a, IntVec b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
  friend constexpr IntVec operator*(IntVec a, IntVec b) { return {a.x * b.x, a.y * b.y, a.z * b.z}; }
  friend constexpr IntVec operator*(IntVec a, int s) { return {a.x * s, a.y * s, a.z * s}; }
  friend constexpr IntVec operator/(IntVec a, IntVec b) { return {a.x / b.x, a.y / b.y, a.z / b.z}; }
  friend constexpr bool operator==(IntVec a, IntVec b) { return a.x == b.x && a.y == b.y && a.z == b.z; }
  friend constexpr bool operator!=(IntVec a, IntVec b) { return !(a == b); }

  /// Componentwise minimum / maximum.
  static constexpr IntVec min(IntVec a, IntVec b) {
    return {a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y, a.z < b.z ? a.z : b.z};
  }
  static constexpr IntVec max(IntVec a, IntVec b) {
    return {a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y, a.z > b.z ? a.z : b.z};
  }

  /// Product of components as a wide integer (cell counts overflow int).
  constexpr std::int64_t volume() const {
    return static_cast<std::int64_t>(x) * y * z;
  }

  std::string to_string() const {
    return std::to_string(x) + "x" + std::to_string(y) + "x" + std::to_string(z);
  }
};

}  // namespace usw::grid
