#include "sched/tile_exec.h"

#include <algorithm>
#include <vector>

#include "hw/ldm.h"
#include "support/error.h"

namespace usw::sched {
namespace {

std::size_t ghosted_bytes(const kern::KernelVariants& kernel,
                          const grid::Box& tile) {
  return static_cast<std::size_t>(tile.grown(kernel.ghost).volume()) *
         sizeof(double);
}

/// Injected DMA error on tile `t`? A failed athread_get is detected by the
/// CPE and re-issued; the retry rereads the same main-memory bytes, so the
/// numerics are untouched and only the offload's charge changes.
bool tile_dma_error(const TileExecArgs& args, int t) {
  return args.fault.plan != nullptr &&
         args.fault.plan->dma_error(args.fault.incarnation, args.fault.rank,
                                    args.fault.step, args.fault.task, t);
}

/// What one tile moves and costs on a CPE.
struct TileTerms {
  std::uint64_t cells = 0;
  std::uint64_t bytes_in = 0;   ///< the ghosted tile
  std::uint64_t bytes_out = 0;  ///< the interior
  double flops = 0.0;           ///< counted flops of the tile's cells
  TimePs work = 0;              ///< tile overhead + compute
  TimePs get = 0;
  TimePs put = 0;
  TimePs price() const { return work + get + put; }
};

/// Prices tiles for one plan: the kernel's cost scaled by the patch and the
/// tile, DMA contended over the whole cluster. The terms are a pure
/// function of the tile's extent and per-tile scale, so a tile whose key
/// equals the previous tile's reuses them: every tile of an unclipped,
/// unscaled patch is priced once.
class TilePricer {
 public:
  TilePricer(const TileExecArgs& args, int cluster_cpes,
             const hw::CostModel& cost)
      : args_(args), kernel_(*args.kernel),
        base_(kernel_.cost.scaled(args.cost_scale)),
        cluster_cpes_(cluster_cpes), cost_(cost) {}

  /// Valid until the next call.
  const TileTerms& operator()(const grid::Box& tile) {
    const grid::IntVec extent = tile.size();
    const double scale = kernel_.scale_for_tile(tile);
    if (extent == last_extent_ && scale == last_scale_) return last_;
    last_extent_ = extent;
    last_scale_ = scale;
    const bool strided = !args_.packed_tiles;
    const hw::KernelCost kc =
        kernel_.tile_cost_scale ? base_.scaled(scale) : base_;
    TileTerms& t = last_;
    t.cells = static_cast<std::uint64_t>(tile.volume());
    t.bytes_in = ghosted_bytes(kernel_, tile);
    t.bytes_out = t.cells * sizeof(double);
    t.flops = static_cast<double>(t.cells) * kc.counted_flops_per_cell();
    t.work = cost_.cpe_tile_overhead() +
             cost_.cpe_compute(t.cells, kc, args_.vectorize,
                               kernel_.use_ieee_exp);
    t.get = cost_.cpe_dma(t.bytes_in, cluster_cpes_, strided);
    t.put = cost_.cpe_dma(t.bytes_out, cluster_cpes_, strided);
    return last_;
  }

 private:
  const TileExecArgs& args_;
  const kern::KernelVariants& kernel_;
  const hw::KernelCost base_;
  int cluster_cpes_;
  const hw::CostModel& cost_;
  grid::IntVec last_extent_{-1, -1, -1};
  double last_scale_ = 0.0;
  TileTerms last_;
};

/// What the CPE running `mine` after `grabs` grabs charges: every grab's
/// faaw plus its tiles under the planned DMA mode, flops accumulated in
/// execution order from 0.0 as the hardware's counter would. Synchronous
/// DMA is the paper's implementation (Sec V-D: it "does not make use of
/// the fact that the memory-LDM transfer can be asynchronous"); the
/// double-buffered pipeline is its future work (Sec IX).
CpeCharge cpe_charge(const TileExecArgs& args, const grid::Tiling& tiling,
                     TileRun mine, int grabs, TilePricer& price,
                     const hw::CostModel& cost) {
  CpeCharge c;
  c.tiles = static_cast<std::uint64_t>(mine.size());
  c.grabs = static_cast<std::uint64_t>(grabs);
  c.busy = static_cast<TimePs>(grabs) * cost.cpe_faaw();
  TimePs prev_put = 0;  // double-buffered: tile i-1's put
  for (int i = 0; i < mine.size(); ++i) {
    const TileTerms t = price(tiling.tile(mine[i]));
    c.dma_in += t.bytes_in;
    c.dma_out += t.bytes_out;
    c.cells += t.cells;
    c.flops += t.flops;
    if (!args.async_dma) {
      c.busy += t.price();
      continue;
    }
    // The double-buffered pipeline: the first get and the last put are
    // exposed; each stage takes max(work_i, get_{i+1} + put_{i-1}).
    if (i == 0) c.busy += t.get;
    TimePs overlapped = prev_put;
    if (i + 1 < mine.size()) overlapped += price(tiling.tile(mine[i + 1])).get;
    c.busy += std::max(t.work, overlapped);
    prev_put = t.put;
  }
  c.busy += prev_put;
  return c;
}

/// The LDM staging buffers of a tile of `size`: one in/out pair, or two
/// under the double-buffered pipeline, which keeps the next tile's get and
/// the previous tile's put in flight beside the current tile.
struct Staging {
  std::size_t in = 0;
  std::size_t out = 0;
  bool async_dma = false;

  bool fits(std::size_t ldm) const {
    return async_dma ? hw::Ldm::fits(ldm, {in, in, out, out}) : hw::Ldm::fits(ldm, {in, out});
  }
  void check(std::size_t ldm) const {
    if (async_dma)
      hw::Ldm::check_fits(ldm, {in, in, out, out});
    else
      hw::Ldm::check_fits(ldm, {in, out});
  }
};

Staging staging_of(const kern::KernelVariants& kernel, grid::IntVec size, bool async_dma) {
  const grid::Box tile{{0, 0, 0}, size};
  return {ghosted_bytes(kernel, tile), static_cast<std::size_t>(tile.volume()) * sizeof(double),
          async_dma};
}

}  // namespace

grid::IntVec tile_shape_for(const kern::KernelVariants& kernel, grid::IntVec cells,
                            bool async_dma, std::size_t ldm_bytes) {
  grid::IntVec shape = grid::IntVec::min(kernel.tile_shape, cells);
  if (!async_dma || staging_of(kernel, shape, true).fits(ldm_bytes) ||
      !staging_of(kernel, shape, false).fits(ldm_bytes))
    return kernel.tile_shape;
  for (int axis = 2; !staging_of(kernel, shape, true).fits(ldm_bytes); axis = (axis + 2) % 3) {
    if (shape == grid::IntVec{1, 1, 1}) break;  // the planner raises the overflow
    shape[axis] = std::max(1, shape[axis] / 2);
  }
  return shape;
}

TilePlan plan_tile_assignment(const TileExecArgs& args, const grid::Box& patch,
                              int n_cpes, int cluster_cpes,
                              const hw::CostModel& cost,
                              schedpt::ScheduleController* schedule, int rank) {
  USW_ASSERT(args.kernel != nullptr);
  const kern::KernelVariants& kernel = *args.kernel;
  const std::size_t ldm = cost.params().ldm_bytes;
  TilePlan plan{grid::Tiling(patch, tile_shape_for(kernel, patch.size(), args.async_dma, ldm)),
                {}, {}, {}};
  const grid::Tiling& tiling = plan.tiling;
  // Tile 0 is the largest along every axis: if it does not fit, none does.
  staging_of(kernel, tiling.tile(0).size(), args.async_dma).check(ldm);

  // Plan with the synchronous end-to-end price of a tile, so under sync DMA
  // the planned clocks equal the charged busy times. The double-buffered
  // pipeline overlaps the DMA terms; planning with the sync estimate keeps
  // the assignment identical across both DMA modes (it is what the shared
  // counter would see on the hardware, where the grab happens before the
  // pipeline hides anything).
  TilePricer price(args, cluster_cpes, cost);
  plan.assignment = assign_tiles(
      tiling, n_cpes, args.policy,
      [&](int t) { return price(tiling.tile(t)).price(); }, cost.cpe_faaw(),
      schedule, rank);

  const TileAssignment& a = plan.assignment;
  plan.charge_of.reserve(a.shares.size());
  for (std::size_t i = 0; i < a.shares.size(); ++i) {
    const CpeCharge c = cpe_charge(args, tiling, a.tiles(static_cast<int>(i)),
                                   a.shares[i].grabs, price, cost);
    const auto it = std::find(plan.charges.begin(), plan.charges.end(), c);
    plan.charge_of.push_back(
        static_cast<std::uint16_t>(it - plan.charges.begin()));
    if (it == plan.charges.end()) plan.charges.push_back(c);
  }
  return plan;
}

std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan) {
  std::vector<std::pair<int, grid::Box>> writes;
  writes.reserve(static_cast<std::size_t>(plan.num_tiles()));
  for (std::size_t i = 0; i < plan.cpes.size(); ++i)
    for (const int t : plan.tiles(static_cast<int>(i)))
      writes.emplace_back(plan.cpes[i], tiling.tile(t));
  return writes;
}

void charge_offload(const TileExecArgs& args, const TilePlan& plan,
                    int cluster_cpes, const hw::CostModel& cost,
                    std::vector<TimePs>& busy, hw::PerfCounters& counters) {
  const TileAssignment& a = plan.assignment;
  busy.resize(a.shares.size());
  for (int i = 0; i < static_cast<int>(a.shares.size()); ++i) {
    const CpeCharge& c = plan.charge(i);
    TimePs b = c.busy;
    counters.tiles_executed += c.tiles;
    counters.tile_grabs += c.grabs;
    counters.dma_bytes_in += c.dma_in;
    counters.dma_bytes_out += c.dma_out;
    counters.cells_computed += c.cells;
    counters.counted_flops += c.flops;
    if (args.fault.plan != nullptr) {
      for (const int t : a.tiles(i)) {
        if (!tile_dma_error(args, t)) continue;
        const std::size_t bytes =
            ghosted_bytes(*args.kernel, plan.tiling.tile(t));
        b += cost.cpe_dma(bytes, cluster_cpes, !args.packed_tiles);
        if (!args.async_dma) counters.dma_bytes_in += bytes;
        counters.fault_injected += 1;
        counters.fault_retries += 1;
      }
    }
    busy[static_cast<std::size_t>(i)] = b;
  }
}

athread::CpeJob make_tile_job(const TileExecArgs& args, const TilePlan& plan) {
  USW_ASSERT(args.kernel != nullptr);
  USW_ASSERT_MSG(args.in.valid() && args.out.valid(),
                 "a tile job computes data: it needs valid views");
  // Two references: small enough for std::function's local buffer, so
  // making the job allocates nothing.
  return [&args, &plan](athread::CpeContext& ctx) {
    const TileAssignment& assignment = plan.assignment;
    USW_ASSERT_MSG(assignment.n_cpes == ctx.n_cpes(),
                   "tile plan sized for a different CPE group");
    const int share = assignment.find(ctx.cpe_id());
    if (share < 0) return;  // no tiles
    const kern::StencilFn& kernel = args.kernel->variant(args.vectorize);
    const grid::Tiling& tiling = plan.tiling;
    const TileRun tiles = assignment.tiles(share);
    if (args.policy == TilePolicy::kStaticZ) {
      // Whole z-slabs: the box from the first tile's lo to the last tile's
      // hi is exactly the share's tiles.
      kernel(args.env, args.in, args.out,
             {tiling.tile(tiles[0]).lo, tiling.tile(tiles[tiles.size() - 1]).hi});
      return;
    }
    for (const int t : tiles) kernel(args.env, args.in, args.out, tiling.tile(t));
  };
}

}  // namespace usw::sched
