#include "hw/ldm.h"

#include <string>

namespace usw::hw {

std::size_t Ldm::place(std::size_t used, std::size_t bytes, std::size_t align,
                       std::size_t capacity) {
  const std::size_t offset = (used + align - 1) / align * align;
  if (offset + bytes > capacity) {
    throw ResourceError("LDM overflow: request of " + std::to_string(bytes) +
                        " B with " + std::to_string(capacity - used) +
                        " B free of " + std::to_string(capacity) + " B");
  }
  return offset;
}

void Ldm::check_fits(std::size_t capacity,
                     std::initializer_list<std::size_t> bytes) {
  std::size_t used = 0;
  for (const std::size_t b : bytes)
    used = place(used, b, kBaseAlign, capacity) + b;
}

}  // namespace usw::hw
