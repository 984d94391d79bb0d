#pragma once

// The CPE tile scheduler (Sec V-D).
//
// Plans, charges and executes one stencil kernel over one patch on a CPE
// group: each CPE computes its assigned tiles — statically z-partitioned
// (Sec V-D step 1) or self-scheduled off a shared atomic counter
// (TilePolicy) — and on the hardware performs for each tile
//   athread_get (ghosted tile -> LDM) -> kernel on LDM -> athread_put,
// finishing with the faaw increment modeled inside CpeCluster. The LDM's
// capacity is enforced where it decides anything: the planner rejects a
// tile whose staging buffers overflow the 64 KB LDM (hw::Ldm::check_fits)
// before any body runs, after halving one that only the double-buffered
// pipeline's second buffer pair overflows (tile_shape_for).
//
// An offload's tiling, its tile->CPE assignment and every CPE's cost
// depend only on the task, so they are planned once (plan_tile_assignment)
// into an immutable TilePlan that a scheduler keeps for the whole run. The
// planner prices every tile from the cost model and records each working
// CPE's busy time and counter deltas under the planned DMA mode
// (CpeCharge). The MPE charges every offload from that plan before it
// spawns (charge_offload), adding only the re-issued input DMA of each
// tile that draws an injected DMA error this step. The CPE bodies
// (make_tile_job) only compute real data: each runs the kernel on the
// warehouse fields in place, over regions of its share's tiles. The
// staging copy would reproduce the ghosted tile verbatim and every stencil
// task writes a different variable from the one it reads, so computing in
// place gives the same bits. A static-z share is whole z-slabs, one box,
// so its body makes one kernel call; a dynamic share makes one per grabbed
// tile. The host has no scratch-pad to stage through, so the tile stays
// the unit of planning, charging, the LDM rule and the checker's
// write-set partition, not of the kernel call. A timing-only offload runs
// no body.
//
// Two of the paper's future-work optimizations (Sec IX) are available:
//   * async_dma  - double-buffered tiles: the next tile's athread_get and
//     the previous tile's athread_put overlap with the current tile's
//     compute. Costs the LDM twice the buffers, so it forces smaller
//     tiles — the real trade-off the paper's authors would have faced.
//   * packed_tiles - tiles are stored contiguously in main memory, so DMA
//     runs at the packed (higher) efficiency instead of the strided one.

#include <cstdint>
#include <utility>
#include <vector>

#include "athread/athread.h"
#include "fault/fault.h"
#include "grid/box.h"
#include "grid/tiling.h"
#include "hw/cost_model.h"
#include "hw/perf_counters.h"
#include "kern/kernel.h"
#include "sched/tile_policy.h"

namespace usw::sched {

/// Identity of an offload for deterministic DMA-error injection. The plan
/// is consulted per tile with a pure hash, so any tile policy sees the
/// same errors. Inactive when
/// `plan` is null; set it only when the plan can draw DMA errors, since
/// an active probe makes charge_offload walk every tile of the offload.
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

/// What one CPE's share of an offload adds to its busy time and to the
/// rank's counters, known before the offload runs (plan_tile_assignment).
/// The MPE charges it at every offload (charge_offload); only an injected
/// DMA error's re-issue is charged apart.
struct CpeCharge {
  TimePs busy = 0;
  std::uint64_t tiles = 0;
  std::uint64_t grabs = 0;
  std::uint64_t dma_in = 0;   ///< bytes main memory -> LDM
  std::uint64_t dma_out = 0;  ///< bytes LDM -> main memory
  std::uint64_t cells = 0;
  /// Counted flops, accumulated tile by tile in execution order from 0.0,
  /// as the CPE's hardware counter would.
  double flops = 0.0;

  friend bool operator==(const CpeCharge&, const CpeCharge&) = default;
};

/// Everything an offload of one stencil task needs that stays the same
/// from step to step: the patch's tiling, the tile->CPE assignment, and
/// what each CPE with work charges under the planned DMA mode. Immutable
/// once built; CPE bodies only read it. O(CPEs with work + tiles) words:
/// CPEs with identical work share one charge record.
struct TilePlan {
  grid::Tiling tiling;
  TileAssignment assignment;
  std::vector<CpeCharge> charges;        ///< distinct records
  std::vector<std::uint16_t> charge_of;  ///< per share: index into charges

  /// What the CPE of share `i` charges.
  const CpeCharge& charge(int i) const {
    return charges[charge_of[static_cast<std::size_t>(i)]];
  }
};

/// The tile shape of `kernel` on a patch of `cells` (Sec VI-A sizes tiles
/// to the LDM): the kernel's preferred shape (KernelVariants::tile_shape),
/// unless the double-buffered pipeline needs room for its second buffer
/// pair. Under async DMA, a largest tile that fits the LDM of `ldm_bytes`
/// once but not twice is halved along z, then y, then x, in turn, until
/// both pairs fit: 16x16x8 becomes 16x16x4 on any patch at least 16x16x8.
/// A preferred tile that does not fit even once is the kernel's
/// configuration error, which the planner raises. Every reader of the
/// shape calls this, so the planner, the MPE path's cost and uswsim's
/// banner agree.
grid::IntVec tile_shape_for(const kern::KernelVariants& kernel, grid::IntVec cells,
                            bool async_dma, std::size_t ldm_bytes);

/// Plans an offload of args.kernel over `patch`: tiles it by
/// tile_shape_for(), applies args.policy with the synchronous per-tile price
/// (tile overhead + get + compute + put, per-tile cost scale included) and
/// the faaw grab cost, and records each working CPE's charge. `n_cpes` is
/// the offload's group size and `cluster_cpes` the whole cluster's CPE
/// count (DMA contention). Throws ResourceError ("LDM overflow") if the
/// largest tile's staging buffers do not fit the LDM. Deterministic: a
/// pure function of its arguments, of which only the kernel, cost_scale,
/// policy, vectorize, async_dma and packed_tiles fields of `args` matter.
/// `schedule`/`rank` feed the kTileGrab schedule point (see assign_tiles).
/// Runs on the MPE: CPE bodies must never consult the controller.
TilePlan plan_tile_assignment(const TileExecArgs& args, const grid::Box& patch,
                              int n_cpes, int cluster_cpes,
                              const hw::CostModel& cost,
                              schedpt::ScheduleController* schedule = nullptr,
                              int rank = 0);

/// Charges one offload of `plan` on the MPE, before the spawn. busy[i]
/// becomes the busy time of the CPE of share i: its planned charge plus
/// one re-issued input transfer per tile that draws a DMA error under
/// args.fault this step. Every share's counter deltas are added to
/// `counters` in CPE-id order, so the counted-flops sum always adds in the
/// same order. A re-issue counts one injected fault and one retry; under
/// synchronous DMA it is one more get (busy time and dma_bytes_in),
/// under the double-buffered pipeline one exposed re-transfer (busy time
/// only). `cluster_cpes` is the whole cluster's CPE count (DMA
/// contention), as for plan_tile_assignment.
void charge_offload(const TileExecArgs& args, const TilePlan& plan,
                    int cluster_cpes, const hw::CostModel& cost,
                    std::vector<TimePs>& busy, hw::PerfCounters& counters);

/// Job for CpeCluster::spawn that computes the data of an offload of `plan`
/// (sized for the target group): each working CPE runs the kernel on
/// args.in and args.out over its share's tiles, writing only their
/// interiors: once over the share's box under static-z (whole z-slabs),
/// once per tile under the dynamic policy. This relies on the kernel
/// contract (kern::StencilFn): a cell's value does not depend on the
/// region that contains it. It charges nothing; pair it with
/// charge_offload and CpeCluster::set_work(plan.assignment.cpes, busy).
/// Needs valid data views (a timing-only offload spawns an empty job).
/// The job refers to `args` and `plan`, which must outlive the spawn that
/// runs it; the bodies run inside that spawn. A body run for a CPE without
/// work does nothing.
athread::CpeJob make_tile_job(const TileExecArgs& args, const TilePlan& plan);

/// The per-CPE write-sets — (cpe id, tile interior box) pairs — of the
/// assignment actually executed, in execution order. Feeds the access
/// checker's tile-partition race detector, which therefore validates the
/// real (policy-dependent) assignment rather than re-deriving the static
/// z-partition.
std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan);

}  // namespace usw::sched
