#pragma once

// One mesh level: a rectangular grid of equally-sized patches, matching the
// paper's setup (Sec VII-A: the grid is partitioned into equally-sized
// patches with a fixed patch layout, e.g. 8x8x2).
//
// The full Uintah framework supports adaptive refinement with multiple
// levels; the paper's evaluation uses a single uniform level, which is what
// this class provides. Patch ids are dense, ordered x-fastest.

#include <vector>

#include "grid/box.h"
#include "grid/intvec.h"

namespace usw::grid {

class Patch {
 public:
  Patch(int id, IntVec layout_pos, Box cells)
      : id_(id), layout_pos_(layout_pos), cells_(cells) {}

  int id() const { return id_; }
  /// Position of this patch in the patch layout (not cell space).
  IntVec layout_pos() const { return layout_pos_; }
  /// Interior cell range of the patch.
  const Box& cells() const { return cells_; }
  /// Cell range including `g` ghost layers.
  Box ghosted(int g) const { return cells_.grown(g); }

 private:
  int id_;
  IntVec layout_pos_;
  Box cells_;
};

class Level {
 public:
  /// Builds a level of `layout` patches, each of `patch_size` cells, with
  /// mesh spacing derived from a unit domain: dx = 1 / total_cells.x etc.
  Level(IntVec layout, IntVec patch_size);

  IntVec layout() const { return layout_; }
  IntVec total_cells() const { return layout_ * patch_size_; }
  Box domain() const { return Box{IntVec{0, 0, 0}, total_cells()}; }

  int num_patches() const { return static_cast<int>(patches_.size()); }
  const Patch& patch(int id) const { return patches_.at(static_cast<std::size_t>(id)); }
  const std::vector<Patch>& patches() const { return patches_; }

  /// Patch at a layout position; nullptr if outside (non-periodic domain).
  const Patch* patch_at(IntVec layout_pos) const;

  /// The up to 6 face neighbors of `p`, in deterministic order: ghost data
  /// is exchanged across faces only (enough for star stencils like
  /// Algorithm 1).
  std::vector<const Patch*> neighbors(const Patch& p) const;

  /// Mesh spacing on the unit cube domain.
  double dx() const { return 1.0 / total_cells().x; }
  double dy() const { return 1.0 / total_cells().y; }
  double dz() const { return 1.0 / total_cells().z; }

 private:
  IntVec layout_;
  IntVec patch_size_;
  std::vector<Patch> patches_;
};

}  // namespace usw::grid
