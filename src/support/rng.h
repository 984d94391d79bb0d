#pragma once

// Deterministic pseudo-random numbers for tests and synthetic workloads.
//
// The simulator itself never consumes randomness (determinism is a design
// requirement), but property tests and load-imbalance injection need a
// reproducible source. SplitMix64 is small, fast, and well distributed.

#include <cstdint>

namespace usw {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_in(double lo, double hi) { return lo + (hi - lo) * next_double(); }

 private:
  std::uint64_t state_;
};

}  // namespace usw
