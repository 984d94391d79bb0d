#pragma once

// Local Data Memory (LDM) model.
//
// Each CPE owns a 64 KB scratch-pad instead of a data cache (Sec IV-A).
// Kernels stage tile data into the LDM with DMA (athread_get), compute in
// LDM, and write back (athread_put). This class models the LDM as a real
// bump-allocated buffer: allocations hand out host memory so kernels
// genuinely compute out of the staged copy, and exceeding the 64 KB
// capacity fails the same way it would on hardware (at development time,
// loudly).
//
// Construction allocates and zero-fills the whole buffer, so its owners
// make one only where CPE bodies run: the serial CpeCluster at its first
// body, the threads backend's WorkerPool per worker at that worker's
// first body (athread.h). Planners that only need the capacity rule use
// check_fits() and hold no buffer.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>

#include "support/error.h"

namespace usw::hw {

class Ldm {
 public:
  explicit Ldm(std::size_t capacity_bytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t remaining() const { return capacity_ - used_; }

  /// Allocates `count` elements of T, 32-byte aligned (SIMD width).
  /// Throws ResourceError if the working set would exceed the capacity —
  /// the equivalent of an athread LDM overflow.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(alignof(T) <= kBaseAlign, "LDM storage is 32-byte aligned");
    void* p = alloc_bytes(count * sizeof(T), kBaseAlign);
    return std::span<T>(static_cast<T*>(p), count);
  }

  /// Releases everything (end of a tile); pointers become invalid.
  void reset() { used_ = 0; }

  /// Throws the ResourceError that alloc() calls of `bytes` each, made in
  /// order on an empty LDM of `capacity` bytes, would throw. Lets a planner
  /// reject a tile before any CPE stages it.
  static void check_fits(std::size_t capacity,
                         std::initializer_list<std::size_t> bytes);

 private:
  static constexpr std::size_t kBaseAlign = 32;
  struct AlignedDelete {
    void operator()(std::byte* p) const;
  };

  /// Offset of a `bytes`-long block placed after `used` bytes; throws
  /// ResourceError if it would end past `capacity`.
  static std::size_t place(std::size_t used, std::size_t bytes,
                           std::size_t align, std::size_t capacity);
  void* alloc_bytes(std::size_t bytes, std::size_t align);

  std::unique_ptr<std::byte, AlignedDelete> storage_;  ///< kBaseAlign-aligned
  std::size_t capacity_;
  std::size_t used_ = 0;
};

}  // namespace usw::hw
