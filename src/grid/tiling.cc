#include "grid/tiling.h"

#include <numeric>

#include "support/error.h"

namespace usw::grid {

Tiling::Tiling(const Box& patch_cells, IntVec tile_shape)
    : patch_(patch_cells), tile_shape_(tile_shape) {
  if (tile_shape.x <= 0 || tile_shape.y <= 0 || tile_shape.z <= 0)
    throw ConfigError("tile shape must be positive: " + tile_shape.to_string());
  USW_ASSERT_MSG(!patch_cells.empty(), "tiling an empty patch");
  const IntVec size = patch_cells.size();
  tile_grid_ = IntVec{(size.x + tile_shape.x - 1) / tile_shape.x,
                      (size.y + tile_shape.y - 1) / tile_shape.y,
                      (size.z + tile_shape.z - 1) / tile_shape.z};
}

Box Tiling::tile(int index) const {
  USW_ASSERT_MSG(index >= 0 && index < num_tiles(), "tile index out of range");
  const int per_slab = tile_grid_.x * tile_grid_.y;
  const int in_slab = index % per_slab;
  const IntVec t{in_slab % tile_grid_.x, in_slab / tile_grid_.x,
                 index / per_slab};
  const IntVec lo = patch_.lo + t * tile_shape_;
  return Box{lo, IntVec::min(lo + tile_shape_, patch_.hi)};
}

std::pair<int, int> Tiling::slab_range(int cpe_id, int n_cpes) const {
  USW_ASSERT(cpe_id >= 0 && cpe_id < n_cpes);
  // Slab s goes to CPE s * n_cpes / nz, which owns exactly the slabs s with
  // c * nz <= s * n_cpes < (c + 1) * nz: the run [first(c), first(c + 1)).
  // Each slab carries all of its x-y tiles.
  const long nz = tile_grid_.z;
  const auto first_slab = [&](long c) {
    return static_cast<int>((c * nz + n_cpes - 1) / n_cpes);
  };
  const int per_slab = tile_grid_.x * tile_grid_.y;
  return {first_slab(cpe_id) * per_slab, first_slab(cpe_id + 1) * per_slab};
}

std::vector<int> Tiling::tiles_for_cpe(int cpe_id, int n_cpes) const {
  const auto [lo, hi] = slab_range(cpe_id, n_cpes);
  std::vector<int> out(static_cast<std::size_t>(hi - lo));
  std::iota(out.begin(), out.end(), lo);
  return out;
}

std::uint64_t Tiling::working_set_bytes(IntVec tile_shape, int ghost,
                                        std::uint64_t bytes_per_cell,
                                        int fields_read, int fields_written) {
  USW_ASSERT(ghost >= 0 && fields_read >= 0 && fields_written >= 0);
  const IntVec g{ghost, ghost, ghost};
  const std::uint64_t ghosted =
      static_cast<std::uint64_t>((tile_shape + g * 2).volume());
  const std::uint64_t interior = static_cast<std::uint64_t>(tile_shape.volume());
  return bytes_per_cell * (ghosted * static_cast<std::uint64_t>(fields_read) +
                           interior * static_cast<std::uint64_t>(fields_written));
}

}  // namespace usw::grid
