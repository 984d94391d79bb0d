#pragma once

// TiDA-style tiling of a patch for the per-CPE scratch-pad (Sec V-B/V-D).
//
// When a kernel is scheduled on the CPE cluster, its patch is subdivided
// into tiles whose working set (all fields incl. ghost halo) fits the 64 KB
// LDM. The paper assigns tiles to CPEs by "naturally partitioning the
// blocks in the z dimension" (Sec V-D step 1): contiguous runs of z-slabs
// per CPE, which slab_range()/tiles_for_cpe() implement and which ignores
// per-tile load imbalance. sched/tile_policy.h layers the self-scheduled
// (dynamic) assignment on top of this class; the Tiling itself only
// defines the tile geometry and ordering (x-fastest, then y, then z) that
// the shared grab counter walks.
//
// A Tiling is a value of a few words: tile(t) is computed from the index,
// so a scheduler can keep one per offloaded task for the whole run.

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/box.h"
#include "grid/intvec.h"

namespace usw::grid {

class Tiling {
 public:
  /// Tiles `patch_cells` by `tile_shape`. Boundary tiles are clipped, so
  /// every cell belongs to exactly one tile.
  Tiling(const Box& patch_cells, IntVec tile_shape);

  /// Number of tiles along each axis.
  IntVec tile_grid() const { return tile_grid_; }
  int num_tiles() const { return static_cast<int>(tile_grid_.volume()); }
  /// Tile `index` in x-fastest, then y, then z (slab-major) order, clipped
  /// to the patch. Tile 0 is the largest along every axis.
  Box tile(int index) const;

  /// Tile ids [first, second) of the z-slabs assigned to `cpe_id` of
  /// `n_cpes`: slabs are divided contiguously and as evenly as possible
  /// among the CPEs. With nz slabs, CPE c gets every tile of slabs
  /// [ceil(c*nz/n_cpes), ceil((c+1)*nz/n_cpes)) — the slabs s with
  /// s * n_cpes / nz == c. Empty when the CPE gets no slab.
  std::pair<int, int> slab_range(int cpe_id, int n_cpes) const;
  /// The ids of slab_range() as a list.
  std::vector<int> tiles_for_cpe(int cpe_id, int n_cpes) const;

  /// Bytes of LDM needed to stage one full (unclipped) tile of a kernel
  /// that reads one field with `ghost` halo layers and writes one field,
  /// with `bytes_per_cell` per field element. This is the value checked
  /// against the 64 KB limit when choosing the tile size (Sec VI-A).
  static std::uint64_t working_set_bytes(IntVec tile_shape, int ghost,
                                         std::uint64_t bytes_per_cell,
                                         int fields_read, int fields_written);

 private:
  Box patch_;
  IntVec tile_shape_;
  IntVec tile_grid_;
};

}  // namespace usw::grid
