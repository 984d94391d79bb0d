#include "hw/ldm.h"

#include <string>

namespace usw::hw {

std::optional<Ldm::Overflow> Ldm::first_overflow(
    std::size_t capacity, std::initializer_list<std::size_t> bytes) {
  std::size_t used = 0;
  for (const std::size_t b : bytes) {
    const std::size_t offset = (used + kBaseAlign - 1) / kBaseAlign * kBaseAlign;
    if (offset + b > capacity) return Overflow{b, used};
    used = offset + b;
  }
  return std::nullopt;
}

void Ldm::check_fits(std::size_t capacity,
                     std::initializer_list<std::size_t> bytes) {
  if (const std::optional<Overflow> o = first_overflow(capacity, bytes))
    throw ResourceError("LDM overflow: request of " + std::to_string(o->request) +
                        " B with " + std::to_string(capacity - o->used) +
                        " B free of " + std::to_string(capacity) + " B");
}

bool Ldm::fits(std::size_t capacity, std::initializer_list<std::size_t> bytes) {
  return !first_overflow(capacity, bytes);
}

}  // namespace usw::hw
