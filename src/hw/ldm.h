#pragma once

// Local Data Memory (LDM) capacity rule.
//
// Each CPE owns a 64 KB scratch-pad instead of a data cache (Sec IV-A), and
// the paper stages every tile into it with DMA (athread_get), computes
// there and writes back (athread_put). Here the transfers are charged on
// the MPE from the tile plan (sched/tile_exec.h) and the CPE bodies compute
// on the data-warehouse fields in place, so no LDM storage is modelled,
// only the hardware's capacity rule. The planner checks the largest tile's
// staging buffers against it before any body runs, and an overflow fails
// the same way it would on hardware (at development time, loudly).

#include <cstddef>
#include <initializer_list>
#include <optional>

#include "support/error.h"

namespace usw::hw {

class Ldm {
 public:
  /// Throws the ResourceError that staging blocks of `bytes` each, placed
  /// in order and 32-byte aligned (SIMD width) on an empty LDM of
  /// `capacity` bytes, would raise: the equivalent of an athread LDM
  /// overflow. Lets a planner reject a tile before any CPE runs it.
  static void check_fits(std::size_t capacity,
                         std::initializer_list<std::size_t> bytes);
  /// Whether check_fits(capacity, bytes) would pass, without throwing:
  /// lets a planner shrink a tile until it fits.
  static bool fits(std::size_t capacity, std::initializer_list<std::size_t> bytes);

 private:
  static constexpr std::size_t kBaseAlign = 32;

  /// A block that would end past the capacity: its size and the bytes
  /// placed before it.
  struct Overflow {
    std::size_t request;
    std::size_t used;
  };
  /// The first of `bytes` that overflows, placed as check_fits() places
  /// them; nullopt when all fit.
  static std::optional<Overflow> first_overflow(std::size_t capacity,
                                                std::initializer_list<std::size_t> bytes);
};

}  // namespace usw::hw
