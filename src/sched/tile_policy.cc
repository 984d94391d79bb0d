#include "sched/tile_policy.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "schedpt/schedule.h"
#include "support/error.h"

namespace usw::sched {
namespace {

/// Min-heap entry: the CPE whose virtual clock is smallest grabs next;
/// equal clocks arbitrate toward the lowest CPE id (all CPEs start at
/// clock 0, so the first round hands tiles out in id order, exactly like
/// the emulated faaw loop).
struct GrabSlot {
  TimePs clock;
  int cpe;
  friend bool operator>(const GrabSlot& a, const GrabSlot& b) {
    if (a.clock != b.clock) return a.clock > b.clock;
    return a.cpe > b.cpe;
  }
};

TileAssignment self_schedule(const grid::Tiling& tiling, int n_cpes,
                             const TileCostFn& tile_cost, TimePs grab_cost,
                             schedpt::ScheduleController* schedule, int rank) {
  std::priority_queue<GrabSlot, std::vector<GrabSlot>, std::greater<GrabSlot>>
      heap;
  for (int cpe = 0; cpe < n_cpes; ++cpe) heap.push(GrabSlot{0, cpe});

  const int total = tiling.num_tiles();
  std::vector<int> owner(static_cast<std::size_t>(total));  // by tile id
  std::vector<int> grabs(static_cast<std::size_t>(n_cpes), 0);
  int next = 0;  // the shared tile counter every grab faaw's
  while (next < total) {
    GrabSlot slot = heap.top();
    heap.pop();
    if (schedule != nullptr) {
      // Schedule point: every CPE whose clock ties the minimum could win
      // the faaw arbitration on real hardware. Pop the tied set (arrives
      // in ascending CPE id, so candidate 0 is the canonical winner), let
      // the controller pick, and push the losers back.
      std::vector<GrabSlot> ties;
      while (!heap.empty() && heap.top().clock == slot.clock) {
        ties.push_back(heap.top());
        heap.pop();
      }
      if (!ties.empty()) {
        ties.insert(ties.begin(), slot);
        const int k =
            schedule->choose(schedpt::PointKind::kTileGrab, rank,
                             static_cast<int>(ties.size()));
        slot = ties[static_cast<std::size_t>(k)];
        for (std::size_t i = 0; i < ties.size(); ++i)
          if (i != static_cast<std::size_t>(k)) heap.push(ties[i]);
      }
    }
    grabs[static_cast<std::size_t>(slot.cpe)] += 1;
    slot.clock += grab_cost;
    owner[static_cast<std::size_t>(next)] = slot.cpe;
    slot.clock += tile_cost(next);
    ++next;
    heap.push(slot);
  }

  // Every CPE pays one terminating grab — the faaw that finds the counter
  // past the tile count and ends its loop — so every CPE has a share.
  TileAssignment plan;
  plan.n_cpes = n_cpes;
  plan.cpes.resize(static_cast<std::size_t>(n_cpes));
  plan.shares.resize(static_cast<std::size_t>(n_cpes));
  for (const int cpe : owner)
    plan.shares[static_cast<std::size_t>(cpe)].end += 1;
  int end = 0;
  for (int cpe = 0; cpe < n_cpes; ++cpe) {
    const auto c = static_cast<std::size_t>(cpe);
    plan.cpes[c] = cpe;
    plan.shares[c].grabs = grabs[c] + 1;
    end += plan.shares[c].end;
    plan.shares[c].end = end;
  }
  // Group the tile ids by CPE. The counter hands tiles out in ascending
  // id, so a CPE's ids in ascending order are its execution order.
  std::vector<int> slot(static_cast<std::size_t>(n_cpes), 0);
  for (std::size_t c = 1; c < slot.size(); ++c)
    slot[c] = plan.shares[c - 1].end;
  plan.order.resize(static_cast<std::size_t>(total));
  for (int t = 0; t < total; ++t) {
    int& s = slot[static_cast<std::size_t>(owner[static_cast<std::size_t>(t)])];
    plan.order[static_cast<std::size_t>(s++)] = t;
  }
  return plan;
}

TileAssignment static_z(const grid::Tiling& tiling, int n_cpes) {
  // The z-slab runs of successive CPEs are successive tile-id ranges, so
  // the tile order is the identity and each share is a range of ids.
  TileAssignment plan;
  plan.n_cpes = n_cpes;
  for (int cpe = 0; cpe < n_cpes; ++cpe) {
    const auto [lo, hi] = tiling.slab_range(cpe, n_cpes);
    if (lo == hi) continue;
    plan.cpes.push_back(cpe);
    plan.shares.push_back({.grabs = 0, .end = hi});
  }
  return plan;
}

}  // namespace

const char* to_string(TilePolicy policy) {
  switch (policy) {
    case TilePolicy::kStaticZ: return "static";
    case TilePolicy::kDynamic: return "dynamic";
  }
  return "?";
}

TilePolicy tile_policy_from_string(const std::string& name) {
  if (name == "static") return TilePolicy::kStaticZ;
  if (name == "dynamic") return TilePolicy::kDynamic;
  throw ConfigError("unknown tile policy '" + name +
                    "' (expected static|dynamic)");
}

int TileAssignment::find(int cpe) const {
  const auto it = std::lower_bound(cpes.begin(), cpes.end(), cpe);
  return it != cpes.end() && *it == cpe ? static_cast<int>(it - cpes.begin())
                                        : -1;
}

TileAssignment assign_tiles(const grid::Tiling& tiling, int n_cpes,
                            TilePolicy policy, const TileCostFn& tile_cost,
                            TimePs grab_cost,
                            schedpt::ScheduleController* schedule, int rank) {
  USW_ASSERT(n_cpes > 0);
  if (policy == TilePolicy::kStaticZ) return static_z(tiling, n_cpes);
  USW_ASSERT(static_cast<bool>(tile_cost));
  return self_schedule(tiling, n_cpes, tile_cost, grab_cost, schedule, rank);
}

}  // namespace usw::sched
