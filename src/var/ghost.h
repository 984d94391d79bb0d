#pragma once

// Ghost-cell dependency geometry.
//
// When a task on patch P requires a variable with g halo layers, the halo
// is satisfied from the neighboring patches' interiors: for each neighbor
// N, the region  P.ghosted(g) ∩ N.cells()  is copied (locally) or sent via
// MPI (remotely). These helpers enumerate those regions deterministically;
// the task graph turns them into internal or external dependencies.

#include <vector>

#include "grid/level.h"

namespace usw::var {

struct GhostDep {
  int from_patch = -1;  ///< interior data source
  int to_patch = -1;    ///< ghost region consumer
  grid::Box region;     ///< global cell indices
};

/// Regions patch `to` needs from its face neighbors to fill `g` ghost
/// layers.
std::vector<GhostDep> ghost_requirements(const grid::Level& level,
                                         const grid::Patch& to, int g);

/// Regions patch `from` must provide to neighbors (the mirror image).
std::vector<GhostDep> ghost_provisions(const grid::Level& level,
                                       const grid::Patch& from, int g);

}  // namespace usw::var
