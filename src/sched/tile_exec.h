#pragma once

// The CPE tile scheduler (Sec V-D).
//
// Builds the athread job that executes one stencil kernel over one patch on
// a CPE group: each CPE computes its assigned tiles — statically
// z-partitioned (Sec V-D step 1) or self-scheduled off a shared atomic
// counter (TilePolicy) — and for each tile performs
//   athread_get (ghosted tile -> LDM) -> kernel on LDM -> athread_put,
// finishing with the faaw increment modeled inside CpeCluster. LDM
// capacity is genuinely enforced: staging buffers are allocated from the
// 64 KB Ldm model and overflow throws ResourceError.
//
// Two of the paper's future-work optimizations (Sec IX) are available:
//   * async_dma  - double-buffered tiles: the next tile's athread_get and
//     the previous tile's athread_put overlap with the current tile's
//     compute. Costs the LDM twice the buffers, so it forces smaller
//     tiles — the real trade-off the paper's authors would have faced.
//   * packed_tiles - tiles are stored contiguously in main memory, so DMA
//     runs at the packed (higher) efficiency instead of the strided one.

#include <memory>
#include <utility>
#include <vector>

#include "athread/athread.h"
#include "fault/fault.h"
#include "grid/box.h"
#include "grid/tiling.h"
#include "kern/kernel.h"
#include "sched/tile_policy.h"

namespace usw::sched {

/// Identity of an offload for deterministic DMA-error injection. The plan
/// is consulted per tile with a pure hash, so the serial and threads
/// backends (and any tile policy) see the same errors. Inactive when
/// `plan` is null.
struct TileFaultProbe {
  const fault::FaultPlan* plan = nullptr;
  std::uint64_t incarnation = 0;
  int rank = -1;
  int step = -1;
  int task = -1;
};

struct TileExecArgs {
  const kern::KernelVariants* kernel = nullptr;
  kern::KernelEnv env;
  /// Input over the patch's ghosted box; invalid view => timing-only.
  kern::FieldView in;
  /// Output covering at least the patch interior.
  kern::FieldView out;
  bool vectorize = false;
  bool async_dma = false;    ///< double-buffered DMA pipeline (Sec IX)
  bool packed_tiles = false; ///< contiguous tile transfers (Sec IX)
  double cost_scale = 1.0;   ///< per-patch work multiplier
  TilePolicy policy = TilePolicy::kStaticZ;  ///< tile->CPE assignment
  TileFaultProbe fault;      ///< deterministic DMA-error injection
};

/// Plans the tile->CPE assignment the job will execute: args.policy applied
/// to the patch's tiling with the synchronous per-tile cost estimate
/// (tile overhead + get + compute + put, per-tile cost scale included) and
/// the faaw grab cost. `n_cpes` is the offload's group size and
/// `cluster_cpes` the whole cluster's CPE count (DMA contention).
/// Deterministic: a pure function of its arguments. `schedule`/`rank`
/// feed the kTileGrab schedule point (see assign_tiles). Runs on the MPE:
/// CPE worker threads must never consult the controller.
TileAssignment plan_tile_assignment(const TileExecArgs& args,
                                    const grid::Tiling& tiling, int n_cpes,
                                    int cluster_cpes, const hw::CostModel& cost,
                                    schedpt::ScheduleController* schedule = nullptr,
                                    int rank = 0);

/// Job for CpeCluster::spawn over one offload's `tiling` of the patch and
/// its `plan` from plan_tile_assignment (sized for the target group). The
/// MPE builds both once per offload; every CPE body, the access checker and
/// the telemetry read those same copies, and the job keeps them alive until
/// the offload publishes. Copies `args` by value; the views must stay valid
/// until the offload completes.
athread::CpeJob make_tile_job(TileExecArgs args,
                              std::shared_ptr<const grid::Tiling> tiling,
                              std::shared_ptr<const TileAssignment> plan);

/// The per-CPE write-sets — (cpe id, tile interior box) pairs — of the
/// assignment actually executed, in execution order. Feeds the access
/// checker's tile-partition race detector, which therefore validates the
/// real (policy-dependent) assignment rather than re-deriving the static
/// z-partition.
std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan);

}  // namespace usw::sched
