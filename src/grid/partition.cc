#include "grid/partition.h"

#include <algorithm>
#include <limits>

#include "support/error.h"

namespace usw::grid {

IntVec Partition::choose_rank_grid(IntVec layout, int nranks) {
  // Enumerate factor triples rx*ry*rz == nranks with rx | layout.x etc.,
  // and pick the one whose per-rank patch brick has the smallest surface
  // (fewest remote faces). Rank counts are small, so brute force is fine.
  IntVec best{0, 0, 0};
  long best_surface = std::numeric_limits<long>::max();
  for (int rx = 1; rx <= nranks; ++rx) {
    if (nranks % rx != 0 || layout.x % rx != 0) continue;
    const int rest = nranks / rx;
    for (int ry = 1; ry <= rest; ++ry) {
      if (rest % ry != 0 || layout.y % ry != 0) continue;
      const int rz = rest / ry;
      if (layout.z % rz != 0) continue;
      const long bx = layout.x / rx, by = layout.y / ry, bz = layout.z / rz;
      const long surface = bx * by + by * bz + bx * bz;
      if (surface < best_surface) {
        best_surface = surface;
        best = IntVec{rx, ry, rz};
      }
    }
  }
  return best;  // {0,0,0} when no dividing factorization exists
}

Partition::Partition(const Level& level, int nranks, PartitionPolicy policy,
                     std::span<const double> costs)
    : nranks_(nranks),
      owner_(static_cast<std::size_t>(level.num_patches()), 0),
      by_rank_(static_cast<std::size_t>(nranks)) {
  if (nranks <= 0) throw ConfigError("partition needs at least one rank");
  if (nranks > level.num_patches())
    throw ConfigError("more ranks (" + std::to_string(nranks) + ") than patches (" +
                      std::to_string(level.num_patches()) + ")");
  if (costs.size() != static_cast<std::size_t>(level.num_patches()))
    throw ConfigError("patch cost vector size mismatch");

  if (policy == PartitionPolicy::kCostBalanced) {
    double total = 0.0;
    for (double c : costs) {
      if (c <= 0.0) throw ConfigError("patch costs must be positive");
      total += c;
    }
    // Walk patches in id order; cut to the next rank when the running
    // chunk has reached its fair share of the remaining cost, while always
    // leaving at least one patch for every remaining rank.
    const int n = level.num_patches();
    int rank = 0;
    double chunk = 0.0;
    double remaining = total;
    for (int pid = 0; pid < n; ++pid) {
      const double c = costs[static_cast<std::size_t>(pid)];
      const int ranks_left = nranks - rank;       // including `rank`
      const int patches_left = n - pid;           // including `pid`
      const double fair = remaining / ranks_left;
      const bool can_cut = rank < nranks - 1 && chunk > 0.0;
      const bool chunk_full = chunk + c / 2.0 >= fair;
      const bool must_cut = patches_left < ranks_left;  // one patch each now
      if (can_cut && (chunk_full || must_cut)) {
        remaining -= chunk;
        ++rank;
        chunk = 0.0;
      }
      owner_[static_cast<std::size_t>(pid)] = rank;
      chunk += c;
    }
  } else if (policy == PartitionPolicy::kRoundRobin) {
    for (const Patch& p : level.patches()) owner_[static_cast<std::size_t>(p.id())] = p.id() % nranks;
  } else {
    const IntVec grid = choose_rank_grid(level.layout(), nranks);
    if (grid.x > 0) {
      const IntVec brick = level.layout() / grid;
      for (const Patch& p : level.patches()) {
        const IntVec rpos = p.layout_pos() / brick;
        owner_[static_cast<std::size_t>(p.id())] =
            rpos.x + grid.x * (rpos.y + grid.y * rpos.z);
      }
    } else {
      // No dividing factorization: contiguous chunks of the id order, rank
      // r owning ids [r*n/nranks, (r+1)*n/nranks).
      const long n = level.num_patches();
      for (const Patch& p : level.patches())
        owner_[static_cast<std::size_t>(p.id())] =
            static_cast<int>(static_cast<long>(p.id()) * nranks / n);
    }
  }
  for (std::size_t id = 0; id < owner_.size(); ++id)
    by_rank_[static_cast<std::size_t>(owner_[id])].push_back(static_cast<int>(id));
  for (const auto& ids : by_rank_)
    USW_ASSERT_MSG(!ids.empty(), "partition left a rank without patches");
}

double Partition::imbalance(std::span<const double> costs) const {
  USW_ASSERT(costs.size() == owner_.size());
  double total = 0.0;
  double worst = 0.0;
  for (int r = 0; r < nranks_; ++r) {
    double load = 0.0;
    for (int pid : by_rank_[static_cast<std::size_t>(r)])
      load += costs[static_cast<std::size_t>(pid)];
    total += load;
    worst = std::max(worst, load);
  }
  return worst / (total / nranks_);
}

}  // namespace usw::grid
