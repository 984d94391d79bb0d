#pragma once

// Tile scheduling policies for one CPE offload.
//
// The paper (Sec V-D step 1) statically partitions a patch's tiles across
// the 64 CPEs by z-slab. That leaves CPEs idle whenever the slab count does
// not divide evenly, boundary tiles are clipped, or per-cell work varies
// spatially — the imbalance real Sunway codes attack with atomic-counter
// self-scheduling (each CPE `faaw`s a shared next-tile index, fetches the
// tile, computes, repeats until the counter passes the tile count).
//
// Emulating that loop literally would make the assignment depend on the
// order the host happens to run the CPE bodies in. Instead the assignment is
// computed by deterministic virtual-time list scheduling, which is exactly
// what the atomic counter produces under the virtual-time model: the CPE
// whose accumulated virtual clock is smallest grabs the next tile (ties
// break toward the lowest CPE id, matching the hardware's deterministic
// arbitration in the emulation), pays the faaw grab cost, then advances its
// clock by the tile's modeled cost. The result is a pure function of
// (tiling, costs, policy), planned on the MPE before any body runs. The
// planner (sched/tile_exec.h) then prices each CPE's share once, and the
// MPE charges that price at every offload.

#include <functional>
#include <string>
#include <vector>

#include "grid/tiling.h"
#include "support/units.h"

namespace usw::schedpt {
class ScheduleController;
}  // namespace usw::schedpt

namespace usw::sched {

enum class TilePolicy {
  kStaticZ,  ///< the paper's contiguous z-slab partition (Sec V-D)
  kDynamic,  ///< atomic-counter self-scheduling: one tile per grab
};

const char* to_string(TilePolicy policy);

/// Parses "static" / "dynamic"; throws ConfigError otherwise.
TilePolicy tile_policy_from_string(const std::string& name);

/// The tiles one CPE executes, in execution order: a run of slots in an
/// assignment's tile order. Without an explicit order (static-z) a slot is
/// the tile id itself.
class TileRun {
 public:
  /// Yields tile ids for range-for.
  class Iterator {
   public:
    Iterator(const int* order, int slot) : order_(order), slot_(slot) {}
    int operator*() const { return order_ != nullptr ? order_[slot_] : slot_; }
    Iterator& operator++() {
      ++slot_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.slot_ == b.slot_;
    }

   private:
    const int* order_;
    int slot_;
  };

  TileRun(const int* order, int begin, int end)
      : order_(order), begin_(begin), end_(end) {}

  int size() const { return end_ - begin_; }
  int operator[](int i) const { return *Iterator(order_, begin_ + i); }
  Iterator begin() const { return {order_, begin_}; }
  Iterator end() const { return {order_, end_}; }

 private:
  const int* order_;  ///< null: slot == tile id
  int begin_;
  int end_;
};

/// The executed tile->CPE assignment of one offload and the grabs each CPE
/// pays. Shared by the MPE's charge (sched/tile_exec.h), the CPE bodies
/// (which tiles each CPE runs) and the access checker (the write-set
/// partition). Compact, because a scheduler keeps one per offloaded task for
/// the whole run: O(CPEs with work + tiles) words, and nothing at all per
/// tile under static-z.
struct TileAssignment {
  /// One CPE's share. Shares are laid out back to back in the tile order:
  /// share i owns slots [shares[i-1].end, shares[i].end).
  struct Share {
    /// Atomic-counter grabs (faaw round trips) the CPE pays, including the
    /// final grab that finds the counter exhausted. Zero under kStaticZ.
    int grabs = 0;
    int end = 0;  ///< one past the share's last slot in the tile order
  };

  int n_cpes = 0;  ///< the group size the assignment was planned for
  /// The CPEs with tiles or grabs, ascending. The others sit the offload
  /// out: no tiles, no grabs, zero busy time.
  std::vector<int> cpes;
  std::vector<Share> shares;  ///< parallel to `cpes`
  /// Tile ids by slot: each share's tiles in execution order. Empty under
  /// kStaticZ, whose z-slab runs are contiguous tile ids (slot == id).
  std::vector<int> order;

  int num_tiles() const { return shares.empty() ? 0 : shares.back().end; }
  /// Index of `cpe` in `cpes`/`shares`, or -1 when it has no work.
  int find(int cpe) const;
  /// The tiles of share `i`, in execution order.
  TileRun tiles(int i) const {
    const auto s = static_cast<std::size_t>(i);
    return TileRun(order.empty() ? nullptr : order.data(),
                   s == 0 ? 0 : shares[s - 1].end, shares[s].end);
  }
};

/// Per-tile virtual cost estimate used to order the self-scheduling grabs.
/// Must be a pure function of the tile index.
using TileCostFn = std::function<TimePs(int tile)>;

/// Plans the assignment of `tiling`'s tiles to `n_cpes` CPEs under
/// `policy`. For the dynamic policy's grab order, `tile_cost` prices one
/// tile end to end (overhead + DMA + compute) and `grab_cost` is one faaw
/// round trip; the static policy reads neither. Tiles are handed out in
/// tiling order (the shared counter only increments). Deterministic.
///
/// `schedule` (optional) decides the kTileGrab schedule point: when
/// several CPEs' virtual clocks tie for the next grab of the dynamic
/// policy, the hardware's faaw arbitration could pick any of them; the
/// controller chooses which (canonical = lowest CPE id). The perturbation
/// permutes only clock-tied CPEs, so the multiset of CPE loads — and with
/// it the completion time and numerics — is invariant; only the
/// tile->CPE mapping changes. `rank` labels the decisions.
TileAssignment assign_tiles(const grid::Tiling& tiling, int n_cpes,
                            TilePolicy policy, const TileCostFn& tile_cost,
                            TimePs grab_cost,
                            schedpt::ScheduleController* schedule = nullptr,
                            int rank = 0);

}  // namespace usw::sched
