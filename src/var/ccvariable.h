#pragma once

// Cell-centered grid variable over a cell index box.
//
// Storage is dense, x-fastest ("i" innermost, matching the SIMD direction
// of the vectorized kernels). Indexing uses *global* cell indices; the
// variable's box (typically a patch's ghosted region) anchors the data.

#include <cstring>
#include <span>
#include <vector>

#include "grid/box.h"
#include "support/error.h"

namespace usw::var {

template <typename T>
class CCVariable {
 public:
  CCVariable() = default;

  explicit CCVariable(const grid::Box& box) { allocate(box); }

  void allocate(const grid::Box& box) {
    USW_ASSERT_MSG(!box.empty(), "allocating a variable on an empty box");
    box_ = box;
    size_ = box.size();
    data_.assign(static_cast<std::size_t>(box.volume()), T{});
  }

  bool allocated() const { return !data_.empty(); }
  /// Cells the storage holds without reallocating; allocate() of a box of
  /// at most this volume reuses it.
  std::size_t capacity() const { return data_.capacity(); }
  const grid::Box& box() const { return box_; }

  /// Linear index of global cell (i,j,k); x-fastest.
  std::size_t index(int i, int j, int k) const {
    USW_ASSERT_MSG(box_.contains({i, j, k}), "cell index outside variable box");
    return static_cast<std::size_t>(i - box_.lo.x) +
           static_cast<std::size_t>(size_.x) *
               (static_cast<std::size_t>(j - box_.lo.y) +
                static_cast<std::size_t>(size_.y) *
                    static_cast<std::size_t>(k - box_.lo.z));
  }

  T& operator()(int i, int j, int k) { return data_[index(i, j, k)]; }
  const T& operator()(int i, int j, int k) const { return data_[index(i, j, k)]; }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

  /// Copies `region` (global indices) from `src`; both must cover it.
  void copy_region(const CCVariable& src, const grid::Box& region) {
    USW_ASSERT_MSG(box_.contains(region) && src.box_.contains(region),
                   "copy_region outside variable extents");
    for (int k = region.lo.z; k < region.hi.z; ++k)
      for (int j = region.lo.y; j < region.hi.y; ++j) {
        const std::size_t n = static_cast<std::size_t>(region.hi.x - region.lo.x);
        std::memcpy(&(*this)(region.lo.x, j, k), &src(region.lo.x, j, k),
                    n * sizeof(T));
      }
  }

  /// Serializes `region` row-wise into bytes (ghost message payload).
  std::vector<std::byte> pack(const grid::Box& region) const {
    USW_ASSERT_MSG(box_.contains(region), "pack region outside variable extents");
    std::vector<std::byte> out(static_cast<std::size_t>(region.volume()) * sizeof(T));
    std::size_t off = 0;
    for (int k = region.lo.z; k < region.hi.z; ++k)
      for (int j = region.lo.y; j < region.hi.y; ++j) {
        const std::size_t n = static_cast<std::size_t>(region.hi.x - region.lo.x) * sizeof(T);
        std::memcpy(out.data() + off, &(*this)(region.lo.x, j, k), n);
        off += n;
      }
    return out;
  }

  /// Inverse of pack().
  void unpack(const grid::Box& region, std::span<const std::byte> bytes) {
    USW_ASSERT_MSG(box_.contains(region), "unpack region outside variable extents");
    USW_ASSERT_MSG(bytes.size() == static_cast<std::size_t>(region.volume()) * sizeof(T),
                   "unpack payload size mismatch");
    std::size_t off = 0;
    for (int k = region.lo.z; k < region.hi.z; ++k)
      for (int j = region.lo.y; j < region.hi.y; ++j) {
        const std::size_t n = static_cast<std::size_t>(region.hi.x - region.lo.x) * sizeof(T);
        std::memcpy(&(*this)(region.lo.x, j, k), bytes.data() + off, n);
        off += n;
      }
  }

 private:
  grid::Box box_;
  grid::IntVec size_;
  std::vector<T> data_;
};

}  // namespace usw::var
