#pragma once

// Patch-to-rank assignment (Uintah's load balancer role, Sec V-C step 2).
//
// The evaluation uses equally-sized patches, so the load balancer reduces
// to a geometric decomposition: ranks form a 3D block grid and each rank
// owns a contiguous brick of patches, which minimizes remote faces. A
// round-robin policy is provided as a deliberately communication-heavy
// baseline for tests and ablation benches.

#include <span>
#include <vector>

#include "grid/intvec.h"
#include "grid/level.h"

namespace usw::grid {

enum class PartitionPolicy {
  kBlock,         ///< contiguous 3D bricks of patches per rank
  kRoundRobin,    ///< patch id modulo rank (maximal scatter)
  kCostBalanced,  ///< contiguous id-order chunks of ~equal estimated cost
};

class Partition {
 public:
  /// Computes the assignment of every patch of `level` to `nranks` ranks;
  /// `nranks` must not exceed the number of patches, and `costs` holds
  /// one entry per patch. For kBlock the rank grid is chosen by factorizing
  /// `nranks` to best match the patch layout aspect ratio. kCostBalanced
  /// walks patches in id order and cuts them into contiguous chunks of
  /// approximately equal total cost (Uintah's weighted space-filling-curve
  /// balancing, on the id curve); its costs must be positive.
  Partition(const Level& level, int nranks, PartitionPolicy policy,
            std::span<const double> costs);

  /// Largest rank cost divided by mean rank cost under `costs` (1.0 is a
  /// perfect balance); diagnostic for tests and benches.
  double imbalance(std::span<const double> costs) const;

  /// Owning rank of a patch.
  int rank_of(int patch_id) const { return owner_.at(static_cast<std::size_t>(patch_id)); }

  /// Patches owned by `rank`, in id order.
  const std::vector<int>& patches_of(int rank) const {
    return by_rank_.at(static_cast<std::size_t>(rank));
  }

  /// Chooses a 3D factorization of `nranks` that divides `layout`
  /// dimension-wise if possible (exposed for tests).
  static IntVec choose_rank_grid(IntVec layout, int nranks);

 private:
  int nranks_;
  std::vector<int> owner_;
  std::vector<std::vector<int>> by_rank_;
};

}  // namespace usw::grid
