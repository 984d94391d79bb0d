#include "hw/ldm.h"

#include <cstring>
#include <string>

namespace usw::hw {

void Ldm::AlignedDelete::operator()(std::byte* p) const {
  ::operator delete(p, std::align_val_t{kBaseAlign});
}

Ldm::Ldm(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
  USW_ASSERT_MSG(capacity_bytes > 0, "LDM capacity must be positive");
  // Offsets are aligned relative to the base, so the base itself must be
  // SIMD-aligned: malloc (and std::vector) only promise 16 bytes.
  storage_.reset(static_cast<std::byte*>(
      ::operator new(capacity_bytes, std::align_val_t{kBaseAlign})));
  std::memset(storage_.get(), 0, capacity_bytes);
}

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

void* Ldm::alloc_bytes(std::size_t bytes, std::size_t align) {
  const std::size_t offset = place(used_, bytes, align, capacity_);
  used_ = offset + bytes;
  return storage_.get() + offset;
}

void Ldm::check_fits(std::size_t capacity,
                     std::initializer_list<std::size_t> bytes) {
  std::size_t used = 0;
  for (const std::size_t b : bytes)
    used = place(used, b, kBaseAlign, capacity) + b;
}

}  // namespace usw::hw
