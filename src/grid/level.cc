#include "grid/level.h"

#include "support/error.h"

namespace usw::grid {

Level::Level(IntVec layout, IntVec patch_size)
    : layout_(layout), patch_size_(patch_size) {
  if (layout.x <= 0 || layout.y <= 0 || layout.z <= 0)
    throw ConfigError("patch layout must be positive: " + layout.to_string());
  if (patch_size.x <= 0 || patch_size.y <= 0 || patch_size.z <= 0)
    throw ConfigError("patch size must be positive: " + patch_size.to_string());
  patches_.reserve(static_cast<std::size_t>(layout.volume()));
  int id = 0;
  for (int k = 0; k < layout.z; ++k)
    for (int j = 0; j < layout.y; ++j)
      for (int i = 0; i < layout.x; ++i) {
        const IntVec pos{i, j, k};
        const IntVec lo = pos * patch_size;
        patches_.emplace_back(id++, pos, Box{lo, lo + patch_size});
      }
}

const Patch* Level::patch_at(IntVec pos) const {
  if (pos.x < 0 || pos.x >= layout_.x || pos.y < 0 || pos.y >= layout_.y ||
      pos.z < 0 || pos.z >= layout_.z)
    return nullptr;
  const int id = pos.x + layout_.x * (pos.y + layout_.y * pos.z);
  return &patches_[static_cast<std::size_t>(id)];
}

std::vector<const Patch*> Level::neighbors(const Patch& p) const {
  static constexpr IntVec kOffsets[6] = {{-1, 0, 0}, {1, 0, 0},  {0, -1, 0},
                                         {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};
  std::vector<const Patch*> out;
  for (const IntVec& d : kOffsets)
    if (const Patch* n = patch_at(p.layout_pos() + d)) out.push_back(n);
  return out;
}

}  // namespace usw::grid
