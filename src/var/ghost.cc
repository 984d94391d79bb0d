#include "var/ghost.h"

#include "support/error.h"

namespace usw::var {

std::vector<GhostDep> ghost_requirements(const grid::Level& level,
                                         const grid::Patch& to, int g) {
  USW_ASSERT(g >= 0);
  std::vector<GhostDep> out;
  if (g == 0) return out;
  const grid::Box want = to.ghosted(g);
  for (const grid::Patch* n : level.neighbors(to)) {
    const grid::Box region = want.intersect(n->cells());
    if (!region.empty())
      out.push_back(GhostDep{n->id(), to.id(), region});
  }
  return out;
}

std::vector<GhostDep> ghost_provisions(const grid::Level& level,
                                       const grid::Patch& from, int g) {
  USW_ASSERT(g >= 0);
  std::vector<GhostDep> out;
  if (g == 0) return out;
  for (const grid::Patch* n : level.neighbors(from)) {
    const grid::Box region = n->ghosted(g).intersect(from.cells());
    if (!region.empty())
      out.push_back(GhostDep{from.id(), n->id(), region});
  }
  return out;
}

}  // namespace usw::var
