#include "sched/tile_exec.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "support/error.h"

namespace usw::sched {
namespace {

/// Row-wise copy of `region` between two views (the functional half of a
/// strided DMA transfer).
void copy_region(const kern::FieldView& src, const kern::FieldView& dst,
                 const grid::Box& region) {
  const std::size_t row = static_cast<std::size_t>(region.hi.x - region.lo.x);
  for (int k = region.lo.z; k < region.hi.z; ++k)
    for (int j = region.lo.y; j < region.hi.y; ++j)
      std::memcpy(dst.ptr(region.lo.x, j, k), src.ptr(region.lo.x, j, k),
                  row * sizeof(double));
}

/// One tile, functionally: stage in, run the kernel, stage out. Used by
/// both the synchronous and the double-buffered timing paths (the pipeline
/// changes when time is charged, not what is computed).
void run_tile_functional(const TileExecArgs& args, const grid::Box& tile,
                         const grid::Box& ghosted, kern::FieldView ldm_in,
                         kern::FieldView ldm_out) {
  copy_region(args.in, ldm_in, ghosted);
  args.kernel->variant(args.vectorize)(args.env, ldm_in, ldm_out, tile);
  copy_region(ldm_out, args.out, tile);
}

/// The operation mix charged for `tile`: the patch-scaled base, optionally
/// further scaled by the kernel's per-tile cost function. The planner's
/// estimator calls this too, so estimated and charged costs are the same
/// expression (bit-identical).
hw::KernelCost tile_kernel_cost(const kern::KernelVariants& kernel,
                                const hw::KernelCost& base,
                                const grid::Box& tile) {
  if (!kernel.tile_cost_scale) return base;
  return base.scaled(kernel.scale_for_tile(tile));
}

/// Injected DMA error on tile `t`? A failed athread_get is detected by the
/// CPE and re-issued: the recovery charges one extra input transfer and
/// counts in this CPE's private slot, so it is purely local and
/// order-independent (the numerics are untouched — the retry rereads the
/// same main-memory bytes).
bool tile_dma_error(const TileExecArgs& args, int t) {
  return args.fault.plan != nullptr &&
         args.fault.plan->dma_error(args.fault.incarnation, args.fault.rank,
                                    args.fault.step, args.fault.task, t);
}

/// Synchronous per-tile loop: the paper's current implementation
/// (Sec V-D: "does not make use of the fact that the memory-LDM transfer
/// can be asynchronous").
void run_sync(const TileExecArgs& args, athread::CpeContext& ctx,
              const grid::Tiling& tiling, const std::vector<int>& mine,
              bool functional) {
  const kern::KernelVariants& kernel = *args.kernel;
  const hw::KernelCost base = kernel.cost.scaled(args.cost_scale);
  const bool strided = !args.packed_tiles;
  for (int t : mine) {
    const grid::Box tile = tiling.tile(t);
    const grid::Box ghosted = tile.grown(kernel.ghost);
    const hw::KernelCost cost = tile_kernel_cost(kernel, base, tile);
    ctx.charge(ctx.cost().cpe_tile_overhead());
    ctx.ldm().reset();
    auto in_buf = ctx.ldm().alloc<double>(static_cast<std::size_t>(ghosted.volume()));
    auto out_buf = ctx.ldm().alloc<double>(static_cast<std::size_t>(tile.volume()));
    if (functional)
      run_tile_functional(args, tile, ghosted,
                          kern::FieldView(in_buf.data(), ghosted),
                          kern::FieldView(out_buf.data(), tile));
    ctx.get(nullptr, nullptr,
            static_cast<std::size_t>(ghosted.volume()) * sizeof(double), strided);
    if (tile_dma_error(args, t)) {
      ctx.get(nullptr, nullptr,
              static_cast<std::size_t>(ghosted.volume()) * sizeof(double),
              strided);
      ctx.count_fault_injected();
      ctx.count_fault_retry();
    }
    ctx.compute(static_cast<std::uint64_t>(tile.volume()), cost,
                args.vectorize, kernel.use_ieee_exp);
    ctx.put(nullptr, nullptr,
            static_cast<std::size_t>(tile.volume()) * sizeof(double), strided);
    ctx.count_tile();
  }
}

/// Double-buffered pipeline (future work, Sec IX): tile i's compute
/// overlaps tile i+1's get and tile i-1's put. Requires two in/out buffer
/// pairs in the LDM, which the allocation below genuinely enforces.
void run_double_buffered(const TileExecArgs& args, athread::CpeContext& ctx,
                         const grid::Tiling& tiling, const std::vector<int>& mine,
                         bool functional) {
  const kern::KernelVariants& kernel = *args.kernel;
  const hw::KernelCost base = kernel.cost.scaled(args.cost_scale);
  const bool strided = !args.packed_tiles;

  // Buffers sized for the largest assigned tile, two of each.
  std::size_t max_ghosted = 0, max_interior = 0;
  for (int t : mine) {
    const grid::Box tile = tiling.tile(t);
    max_ghosted = std::max(
        max_ghosted, static_cast<std::size_t>(tile.grown(kernel.ghost).volume()));
    max_interior = std::max(max_interior, static_cast<std::size_t>(tile.volume()));
  }
  ctx.ldm().reset();
  std::span<double> in_buf[2] = {ctx.ldm().alloc<double>(max_ghosted),
                                 ctx.ldm().alloc<double>(max_ghosted)};
  std::span<double> out_buf[2] = {ctx.ldm().alloc<double>(max_interior),
                                  ctx.ldm().alloc<double>(max_interior)};

  const int n = static_cast<int>(mine.size());
  auto in_bytes = [&](int i) {
    return static_cast<std::size_t>(
               tiling.tile(mine[static_cast<std::size_t>(i)]).grown(kernel.ghost).volume()) *
           sizeof(double);
  };
  auto out_bytes = [&](int i) {
    return static_cast<std::size_t>(
               tiling.tile(mine[static_cast<std::size_t>(i)]).volume()) *
           sizeof(double);
  };

  for (int i = 0; i < n; ++i) {
    const grid::Box tile = tiling.tile(mine[static_cast<std::size_t>(i)]);
    const grid::Box ghosted = tile.grown(kernel.ghost);
    const hw::KernelCost cost = tile_kernel_cost(kernel, base, tile);
    if (functional)
      run_tile_functional(args, tile, ghosted,
                          kern::FieldView(in_buf[i % 2].data(), ghosted),
                          kern::FieldView(out_buf[i % 2].data(), tile));
    ctx.count_dma(in_bytes(i), out_bytes(i));
    ctx.count_compute(static_cast<std::uint64_t>(tile.volume()), cost);
    ctx.count_tile();
    // A failed get stalls the pipeline for one exposed re-transfer before
    // this tile's stage can start.
    if (tile_dma_error(args, mine[static_cast<std::size_t>(i)])) {
      ctx.charge(ctx.dma_cost(in_bytes(i), strided));
      ctx.count_fault_injected();
      ctx.count_fault_retry();
    }

    // Timing: prologue get for tile 0 is exposed; afterwards each stage
    // takes max(compute_i, get_{i+1} + put_{i-1}); the last put is exposed.
    if (i == 0) ctx.charge(ctx.dma_cost(in_bytes(0), strided));
    TimePs overlapped_dma = 0;
    if (i + 1 < n) overlapped_dma += ctx.dma_cost(in_bytes(i + 1), strided);
    if (i > 0) overlapped_dma += ctx.dma_cost(out_bytes(i - 1), strided);
    const TimePs compute =
        ctx.cost().cpe_tile_overhead() +
        ctx.compute_cost(static_cast<std::uint64_t>(tile.volume()), cost,
                         args.vectorize, kernel.use_ieee_exp);
    ctx.charge(std::max(compute, overlapped_dma));
  }
  if (n > 0) ctx.charge(ctx.dma_cost(out_bytes(n - 1), strided));
}

}  // namespace

TileAssignment plan_tile_assignment(const TileExecArgs& args,
                                    const grid::Tiling& tiling, int n_cpes,
                                    int cluster_cpes, const hw::CostModel& cost,
                                    schedpt::ScheduleController* schedule,
                                    int rank) {
  USW_ASSERT(args.kernel != nullptr);
  const kern::KernelVariants& kernel = *args.kernel;
  const hw::KernelCost base = kernel.cost.scaled(args.cost_scale);
  const bool strided = !args.packed_tiles;
  // The synchronous end-to-end price of one tile — the exact sum run_sync
  // charges, so under sync DMA the planned clocks equal the executed busy
  // times. The double-buffered executor overlaps the DMA terms; planning
  // with the sync estimate keeps the assignment identical across both DMA
  // modes (it is what the shared counter would see on the hardware, where
  // the grab happens before the pipeline hides anything).
  //
  // The price is a pure function of the tile's extent and per-tile scale,
  // so a tile whose key equals the previous tile's reuses its price: every
  // tile of an unclipped, unscaled patch is priced once.
  grid::IntVec last_extent{-1, -1, -1};
  double last_scale = 0.0;
  TimePs last_price = 0;
  const TileCostFn tile_cost = [&](int t) {
    const grid::Box& tile = tiling.tile(t);
    const grid::IntVec extent = tile.size();
    const double scale = kernel.scale_for_tile(tile);
    if (extent == last_extent && scale == last_scale) return last_price;
    const grid::Box ghosted = tile.grown(kernel.ghost);
    const hw::KernelCost kc = tile_kernel_cost(kernel, base, tile);
    last_extent = extent;
    last_scale = scale;
    last_price =
        cost.cpe_tile_overhead() +
        cost.cpe_dma(static_cast<std::uint64_t>(ghosted.volume()) * sizeof(double),
                     cluster_cpes, strided) +
        cost.cpe_compute(static_cast<std::uint64_t>(tile.volume()), kc,
                         args.vectorize, kernel.use_ieee_exp) +
        cost.cpe_dma(static_cast<std::uint64_t>(tile.volume()) * sizeof(double),
                     cluster_cpes, strided);
    return last_price;
  };
  return assign_tiles(tiling, n_cpes, args.policy, tile_cost, cost.cpe_faaw(),
                      schedule, rank);
}

std::vector<std::pair<int, grid::Box>> tile_writes(const grid::Tiling& tiling,
                                                   const TileAssignment& plan) {
  std::vector<std::pair<int, grid::Box>> writes;
  writes.reserve(static_cast<std::size_t>(tiling.num_tiles()));
  for (int cpe = 0; cpe < plan.n_cpes(); ++cpe)
    for (int t : plan.tiles_per_cpe[static_cast<std::size_t>(cpe)])
      writes.emplace_back(cpe, tiling.tile(t));
  return writes;
}

athread::CpeJob make_tile_job(TileExecArgs args,
                              std::shared_ptr<const grid::Tiling> tiling,
                              std::shared_ptr<const TileAssignment> plan) {
  USW_ASSERT(args.kernel != nullptr && tiling != nullptr && plan != nullptr);
  return [args = std::move(args), tiling = std::move(tiling),
          plan = std::move(plan)](athread::CpeContext& ctx) {
    USW_ASSERT_MSG(plan->n_cpes() == ctx.n_cpes(),
                   "tile plan sized for a different CPE group");
    const auto cpe = static_cast<std::size_t>(ctx.cpe_id());
    const std::vector<int>& mine = plan->tiles_per_cpe[cpe];
    // Self-scheduling arbitration is paid whether or not this CPE won any
    // tiles (the losing faaw is what ends its loop).
    if (const int grabs = plan->grabs_per_cpe[cpe]; grabs > 0) ctx.grab(grabs);
    if (mine.empty()) return;
    const bool functional = args.in.valid() && args.out.valid();
    if (args.async_dma)
      run_double_buffered(args, ctx, *tiling, mine, functional);
    else
      run_sync(args, ctx, *tiling, mine, functional);
  };
}

}  // namespace usw::sched
