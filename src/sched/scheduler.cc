#include "sched/scheduler.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>

#include "check/check.h"
#include "check/hb.h"
#include "obs/flight.h"
#include "obs/registry.h"
#include "schedpt/schedule.h"
#include "support/error.h"

namespace usw::sched {

Scheduler::Scheduler(SchedulerConfig config, const grid::Level& level,
                     const task::CompiledGraph& graph, comm::Comm& comm,
                     athread::CpeCluster& cluster, hw::PerfCounters& counters)
    : config_(config), level_(level), graph_(graph), comm_(comm),
      cluster_(cluster), counters_(counters),
      plans_(graph.tasks.size()),
      degraded_(static_cast<std::size_t>(cluster.n_groups()), 0),
      fail_streak_(static_cast<std::size_t>(cluster.n_groups()), 0) {
  for (std::size_t i = 0; i < graph_.tasks.size(); ++i) {
    if (!is_stencil(static_cast<int>(i))) continue;
    const task::DetailedTask& dt = graph_.tasks[i];
    const kern::KernelVariants& kernel = dt.task->kernel();
    const grid::Patch& patch = level_.patch(dt.patch_id);
    double scale = kernel.scale_for(patch);
    if (kernel.tile_cost_scale)
      scale *= kernel.mean_tile_scale(grid::Tiling(
          patch.cells(),
          tile_shape_for(kernel, patch.cells().size(), config_.async_dma,
                         comm_.net().cost().params().ldm_bytes)));
    plans_[i].mpe_cost_scale = scale;
  }
}

Scheduler::DiagStats Scheduler::diag_stats() const {
  DiagStats out;
  out.step = step_;
  out.ready = ready_.size();
  out.open_recvs = open_recvs_.size();
  out.open_sends = open_sends_.size();
  out.done = done_count_;
  for (const int dt : offloaded_)
    if (dt >= 0) ++out.offloads_in_flight;
  for (const char d : degraded_)
    if (d != 0) ++out.degraded_groups;
  return out;
}

var::DataWarehouse& Scheduler::dw_for(task::TaskContext& ctx,
                                      task::WhichDW which) const {
  return which == task::WhichDW::kOld ? *ctx.old_dw : *ctx.new_dw;
}

kern::FieldView Scheduler::view_of(var::DataWarehouse& dw,
                                   const var::VarLabel* label,
                                   int patch_id, bool for_write) const {
  if (!dw.functional()) return kern::FieldView{};
  return kern::FieldView::of(for_write ? dw.get_writable(label, patch_id)
                                       : dw.get(label, patch_id));
}

StepStats Scheduler::execute(task::TaskContext& ctx) {
  ctx.cost = &comm_.net().cost();
  const TimePs start = comm_.now();
  step_ = ctx.step;

  if (config_.checker != nullptr) {
    config_.checker->begin_step();
    config_.checker->bind_warehouses(ctx.old_dw, ctx.new_dw);
    ctx.old_dw->set_observer(config_.checker);
    ctx.new_dw->set_observer(config_.checker);
  }
  if (config_.hb != nullptr) config_.hb->begin_step(ctx.step);

  const std::size_t n = graph_.tasks.size();
  state_.assign(n, DtState{});
  ready_.reset(n);
  open_recvs_.clear();
  open_sends_.clear();
  done_count_ = 0;
  offloaded_.assign(static_cast<std::size_t>(cluster_.n_groups()), -1);

  reduction_acc_.clear();
  reduction_remaining_.clear();
  for (const task::ReductionInfo& r : graph_.reductions) {
    reduction_acc_.push_back(r.task->reduce_op() == task::ReduceOp::kMax
                                 ? -std::numeric_limits<double>::infinity()
                                 : 0.0);
    reduction_remaining_.push_back(r.num_local_parts);
  }

  allocate_outputs(ctx);
  post_recvs(ctx);
  post_initial_sends(ctx);

  for (std::size_t i = 0; i < n; ++i) {
    const task::DetailedTask& dt = graph_.tasks[i];
    state_[i].pending_preds = dt.num_internal_preds;
    state_[i].pending_recvs = static_cast<int>(dt.recvs.size());
    if (state_[i].pending_preds == 0 && state_[i].pending_recvs == 0)
      ready_.insert(static_cast<int>(i));
  }

  if (config_.mode == SchedulerMode::kAsyncMpeCpe)
    run_loop_async(ctx);
  else
    run_loop_sync(ctx);

  drain_sends();
  finalize_reductions(ctx);
  comm_.advance(comm_.net().cost().step_fixed_overhead());
  comm_.reset_requests();

  if (config_.checker != nullptr) {
    ctx.old_dw->set_observer(nullptr);
    ctx.new_dw->set_observer(nullptr);
  }

  StepStats stats;
  stats.wall = comm_.now() - start;
  return stats;
}

void Scheduler::allocate_outputs(task::TaskContext& ctx) {
  for (const task::OutputAlloc& out : graph_.outputs)
    if (!ctx.new_dw->exists(out.label, out.patch_id))
      ctx.new_dw->allocate(out.label, level_.patch(out.patch_id), out.ghost);
}

void Scheduler::post_recvs(task::TaskContext& ctx) {
  // Sec V-C 3a: post nonblocking receives for tasks depending on remote
  // data, before any task runs.
  for (std::size_t i = 0; i < graph_.tasks.size(); ++i) {
    for (const task::ExtComm& rc : graph_.tasks[i].recvs) {
      const comm::RequestId req = comm_.irecv(rc.peer_rank, rc.tag(ctx.step));
      open_recvs_.push_back(OpenRequest{req, static_cast<int>(i), &rc});
      record(obs::FlightKind::kRecvPosted, comm_.now(), static_cast<int>(i), rc.id);
    }
  }
}

void Scheduler::post_send(task::TaskContext& ctx, const task::ExtComm& sc,
                          int dt_index) {
  var::DataWarehouse& dw = dw_for(ctx, sc.dw);
  const TimePs pack_cost = comm_.net().cost().mpe_pack(sc.bytes());
  comm_.advance(pack_cost);
  counters_.comm_time += pack_cost;
  counters_.pack_bytes += sc.bytes();
  comm::RequestId req;
  if (dw.functional()) {
    // Hand the packed buffer straight to the comm layer (move overload):
    // the halo path used to copy it again at post time.
    req = comm_.isend(sc.peer_rank, sc.tag(ctx.step),
                      dw.get(sc.label, sc.from_patch).pack(sc.region));
  } else {
    req = comm_.isend_bytes(sc.peer_rank, sc.tag(ctx.step), sc.bytes());
  }
  open_sends_.push_back(OpenRequest{req, dt_index, &sc});
  if (config_.metrics != nullptr)
    sample(Metric::kSendBytes, static_cast<double>(sc.bytes()));
  record(obs::FlightKind::kSendPosted, comm_.now(), dt_index, sc.id);
}

void Scheduler::post_initial_sends(task::TaskContext& ctx) {
  // Old-DW ghost data is complete at step start; ship it immediately, one
  // nonblocking send per message.
  for (const task::ExtComm& sc : graph_.initial_sends) post_send(ctx, sc);
}

std::size_t Scheduler::ReadySet::size() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

int Scheduler::pick_ready(int want_stencil) {
  return ready_.first([&](int i) {
    return want_stencil < 0 || (want_stencil == 1) == is_offloadable(i);
  });
}

bool Scheduler::is_stencil(int dt_index) const {
  return graph_.tasks[static_cast<std::size_t>(dt_index)].task->type() ==
         task::Task::Type::kStencil;
}

bool Scheduler::is_offloadable(int dt_index) const {
  if (!is_stencil(dt_index)) return false;
  if (config_.mpe_kernel_threshold_cells == 0) return true;
  const task::DetailedTask& dt = graph_.tasks[static_cast<std::size_t>(dt_index)];
  const auto cells =
      static_cast<std::uint64_t>(level_.patch(dt.patch_id).cells().volume());
  return cells > config_.mpe_kernel_threshold_cells;
}

void Scheduler::mpe_part(task::TaskContext& ctx, int dt_index) {
  const task::DetailedTask& dt = graph_.tasks[static_cast<std::size_t>(dt_index)];
  ready_.erase(dt_index);
  record(obs::FlightKind::kTaskBegin, comm_.now(), dt_index);
  if (config_.checker != nullptr) config_.checker->begin_task(dt_index);
  const TimePs overhead = comm_.net().cost().mpe_task_overhead();
  comm_.advance(overhead);
  counters_.mpe_task_time += overhead;
  // Gather locally available ghost data (the data warehouse copies the MPE
  // performs before handing the kernel its inputs).
  for (const task::LocalCopy& lc : dt.local_copies) {
    if (config_.checker != nullptr) config_.checker->record_local_copy(dt_index, lc);
    if (config_.hb != nullptr) {
      config_.hb->read(-1, lc.label, lc.dw, lc.from_patch, lc.region,
                       dt.task->name());
      config_.hb->write(-1, lc.label, lc.dw, lc.to_patch, lc.region,
                        dt.task->name());
    }
    const TimePs cost = comm_.net().cost().mpe_pack(lc.bytes());
    comm_.advance(cost);
    counters_.mpe_task_time += cost;
    counters_.pack_bytes += lc.bytes();
    var::DataWarehouse& dw = dw_for(ctx, lc.dw);
    if (dw.functional())
      dw.get(lc.label, lc.to_patch)
          .copy_region(dw.get(lc.label, lc.from_patch), lc.region);
  }
}

kern::KernelEnv Scheduler::env_of(const task::TaskContext& ctx) const {
  kern::KernelEnv env;
  env.time = ctx.time;
  env.dt = ctx.dt;
  env.dx = level_.dx();
  env.dy = level_.dy();
  env.dz = level_.dz();
  return env;
}

void Scheduler::run_stencil_on_mpe(task::TaskContext& ctx, int dt_index) {
  const task::DetailedTask& dt = graph_.tasks[static_cast<std::size_t>(dt_index)];
  const kern::KernelVariants& kernel = dt.task->kernel();
  const grid::Patch& patch = level_.patch(dt.patch_id);
  const auto cells = static_cast<std::uint64_t>(patch.cells().volume());
  if (config_.checker != nullptr) {
    config_.checker->record_stencil_read(dt_index, dt.task->stencil_in(),
                                         dt.task->stencil_in_dw(),
                                         patch.ghosted(kernel.ghost));
    config_.checker->record_write(dt_index, dt.task->stencil_out(), patch.cells());
  }
  if (config_.hb != nullptr) {
    config_.hb->read(-1, dt.task->stencil_in(), dt.task->stencil_in_dw(),
                     dt.patch_id, patch.ghosted(kernel.ghost),
                     dt.task->name());
    config_.hb->write(-1, dt.task->stencil_out(), task::WhichDW::kNew,
                      dt.patch_id, patch.cells(), dt.task->name());
  }
  const kern::FieldView in = view_of(dw_for(ctx, dt.task->stencil_in_dw()),
                                     dt.task->stencil_in(), dt.patch_id);
  const kern::FieldView out = view_of(*ctx.new_dw, dt.task->stencil_out(),
                                      dt.patch_id, /*for_write=*/true);
  if (in.valid() && out.valid()) kernel.scalar(env_of(ctx), in, out, patch.cells());
  const hw::KernelCost scaled = kernel.cost.scaled(
      plans_[static_cast<std::size_t>(dt_index)].mpe_cost_scale);
  const TimePs cost = comm_.net().cost().mpe_compute(cells, scaled);
  comm_.advance(cost);
  counters_.kernel_time += cost;
  counters_.kernels_on_mpe += 1;
  counters_.count_kernel_cells(cells, scaled);
  if (config_.checker != nullptr) config_.checker->end_task();
}

void Scheduler::offload_stencil(task::TaskContext& ctx, int dt_index, int group) {
  const task::DetailedTask& dt = graph_.tasks[static_cast<std::size_t>(dt_index)];
  const kern::KernelVariants& kernel = dt.task->kernel();
  const grid::Patch& patch = level_.patch(dt.patch_id);
  int attempt = 0;
  if (config_.faults != nullptr)
    attempt = ++state_[static_cast<std::size_t>(dt_index)].offload_attempts;
  TileExecArgs args;
  args.kernel = &kernel;
  args.env = env_of(ctx);
  args.in = view_of(dw_for(ctx, dt.task->stencil_in_dw()),
                    dt.task->stencil_in(), dt.patch_id);
  args.out = view_of(*ctx.new_dw, dt.task->stencil_out(), dt.patch_id,
                     /*for_write=*/true);
  args.vectorize = config_.vectorize && kernel.has_simd();
  args.async_dma = config_.async_dma;
  args.packed_tiles = config_.packed_tiles;
  args.cost_scale = kernel.scale_for(patch);
  args.policy = config_.tile_policy;
  if (config_.faults != nullptr &&
      config_.faults->plan().has(fault::FaultKind::kDmaError)) {
    args.fault.plan = &config_.faults->plan();
    args.fault.incarnation = config_.faults->incarnation();
    args.fault.rank = comm_.rank();
    args.fault.step = step_;
    args.fault.task = dt_index;
  }
  // The task's tiling, tile->CPE assignment and CPE charges, planned on the
  // MPE at its first offload. The charge, the job, the race detector and
  // the telemetry all read this one plan, so all see the assignment
  // executed.
  // A schedule controller draws kTileGrab decisions inside the planner,
  // so under one every offload plans afresh.
  std::unique_ptr<const TilePlan>& kept =
      plans_[static_cast<std::size_t>(dt_index)].tiles;
  if (kept == nullptr || config_.schedule != nullptr)
    kept = std::make_unique<const TilePlan>(plan_tile_assignment(
        args, patch.cells(), cluster_.group_size(), cluster_.n_cpes(),
        comm_.net().cost(), config_.schedule, comm_.rank()));
  const TilePlan& plan = *kept;
  if (config_.checker != nullptr) {
    config_.checker->record_stencil_read(dt_index, dt.task->stencil_in(),
                                         dt.task->stencil_in_dw(),
                                         patch.ghosted(kernel.ghost));
    config_.checker->record_write(dt_index, dt.task->stencil_out(), patch.cells());
    // The tile-partition race detector: the per-CPE write-sets of this
    // offload must partition the patch interior exactly.
    config_.checker->record_tile_partition(
        dt_index, patch.cells(), tile_writes(plan.tiling, plan.assignment));
  }
  if (config_.metrics != nullptr) {
    sample(Metric::kOffloadCells, static_cast<double>(patch.cells().volume()));
    const TileAssignment& a = plan.assignment;
    for (int i = 0; i < static_cast<int>(a.shares.size()); ++i)
      for (const int t : a.tiles(i))
        sample(Metric::kTileCells, static_cast<double>(plan.tiling.tile(t).volume()));
  }
  record(obs::FlightKind::kOffloadBegin, comm_.now(), dt_index, group);
  // What every working CPE charges, fixed here on the MPE before the spawn.
  charge_offload(args, plan, cluster_.n_cpes(), comm_.net().cost(),
                 share_busy_, counters_);
  if (config_.faults != nullptr) {
    if (const auto stall = config_.faults->cpe_stall(step_, dt_index, attempt,
                                                     cluster_.group_size())) {
      // One CPE of this offload runs `factor` x slower. The decision is a
      // hash of stable ids, and the rounding below is a deterministic
      // double->int conversion. A stalled CPE without work charges
      // factor x 0.
      counters_.fault_injected += 1;
      record(obs::FlightKind::kCpeStall, comm_.now(), dt_index, group);
      if (const int i = plan.assignment.find(stall->cpe); i >= 0) {
        TimePs& busy = share_busy_[static_cast<std::size_t>(i)];
        busy += static_cast<TimePs>(static_cast<double>(busy) *
                                    (stall->factor - 1.0));
      }
    }
  }
  // Only CPEs with tiles or grabs work, and only a functional offload has
  // data for their bodies to move.
  cluster_.set_work(plan.assignment.cpes, share_busy_);
  cluster_.spawn(args.in.valid() && args.out.valid() ? make_tile_job(args, plan)
                                                     : athread::CpeJob{},
                 group);
  record(obs::FlightKind::kKernelBegin, comm_.now(), dt_index, group);
  if (config_.hb != nullptr) {
    // The offload is a forked logical thread: its accesses are ordered
    // after everything the MPE did before the spawn, and before anything
    // the MPE does after observing completion — nothing else. The fork
    // records the global schedule-point index as replay provenance.
    config_.hb->fork(group, config_.schedule != nullptr
                                ? config_.schedule->points_seen()
                                : 0);
    config_.hb->read(group, dt.task->stencil_in(), dt.task->stencil_in_dw(),
                     dt.patch_id, patch.ghosted(kernel.ghost),
                     dt.task->name());
    config_.hb->write(group, dt.task->stencil_out(), task::WhichDW::kNew,
                      dt.patch_id, patch.cells(), dt.task->name());
  }
  offloaded_[static_cast<std::size_t>(group)] = dt_index;
  // The functional writes happened inside the spawn; the MPE-side task
  // scope ends here even though the offload is still in flight.
  if (config_.checker != nullptr) config_.checker->end_task();
}

void Scheduler::sample_offload_imbalance(int group) {
  if (config_.metrics == nullptr) return;
  const std::vector<TimePs>& busy = cluster_.cpe_busy(group);
  if (busy.empty()) return;
  TimePs max = 0;
  TimePs sum = 0;
  for (const TimePs b : busy) {
    max = std::max(max, b);
    sum += b;
  }
  // Integer accumulation first, then one division each, so the samples
  // are exact functions of the per-CPE busy times.
  const auto n = static_cast<double>(busy.size());
  const double mean = static_cast<double>(sum) / n;
  sample(Metric::kCpeBusyMax, static_cast<double>(max));
  sample(Metric::kCpeBusyMean, mean);
  // Fraction of the offload's CPE-seconds spent idle: 1 - sum/(n*max).
  sample(Metric::kCpeIdleFrac,
         max > 0 ? 1.0 - static_cast<double>(sum) / (n * static_cast<double>(max)) : 0.0);
  // Max/mean busy ratio, the classic load-imbalance factor (1.0 = perfect).
  sample(Metric::kCpeImbalance, mean > 0.0 ? static_cast<double>(max) / mean : 1.0);
}

void Scheduler::sample(Metric metric, double v) {
  static constexpr const char* kNames[] = {
      "msg.send_bytes", "msg.recv_bytes", "offload.cells", "tile.cells",
      "offload.cpe_busy_max_ps", "offload.cpe_busy_mean_ps", "offload.cpe_idle_frac",
      "offload.cpe_imbalance"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(Metric::kCount));
  const auto i = static_cast<std::size_t>(metric);
  if (metric_[i] == nullptr) metric_[i] = &config_.metrics->handle(kNames[i]);
  metric_[i]->add(v);
}

namespace {

// Recovery policy for injected offload failures.
/// Offload attempts per task before falling back to the MPE.
constexpr int kMaxOffloadAttempts = 3;
/// Consecutive offload failures after which a CPE group is degraded to
/// MPE-only execution for the remainder of the run.
constexpr int kDegradeAfter = 3;
/// Backoff charged before the first re-offload; doubles per retry.
constexpr TimePs kRetryBackoff = 2 * kMicrosecond;

}  // namespace

int Scheduler::first_usable_group() const {
  for (int g = 0; g < cluster_.n_groups(); ++g)
    if (!group_degraded(g)) return g;
  return -1;
}

int Scheduler::first_free_usable_group() const {
  for (int g = 0; g < cluster_.n_groups(); ++g)
    if (!group_degraded(g) && offloaded_[static_cast<std::size_t>(g)] < 0)
      return g;
  return -1;
}

bool Scheduler::offload_fault_check(int dt_index, int group) {
  if (config_.faults == nullptr) return false;
  const int attempt =
      state_[static_cast<std::size_t>(dt_index)].offload_attempts;
  if (!config_.faults->offload_fails(step_, dt_index, attempt)) {
    fail_streak_[static_cast<std::size_t>(group)] = 0;
    return false;
  }
  counters_.fault_injected += 1;
  record(obs::FlightKind::kOffloadFail, comm_.now(), dt_index, group);
  if (++fail_streak_[static_cast<std::size_t>(group)] >= kDegradeAfter &&
      !group_degraded(group)) {
    degraded_[static_cast<std::size_t>(group)] = 1;
    counters_.fault_degraded += 1;
    if (config_.flight != nullptr)
      config_.flight->record(obs::FlightKind::kGroupDegraded, comm_.now(), group);
  }
  return true;
}

void Scheduler::charge_retry_backoff(int dt_index, int attempt) {
  record(obs::FlightKind::kOffloadRetry, comm_.now(), dt_index, attempt);
  TimePs backoff = kRetryBackoff;
  for (int a = 1; a < attempt; ++a) backoff *= 2;
  comm_.advance(backoff);
  counters_.mpe_task_time += backoff;
  record(obs::FlightKind::kBackoffEnd, comm_.now(), dt_index, attempt);
}

int Scheduler::recover_offload(task::TaskContext& ctx, int dt_index, int group) {
  const int attempt =
      state_[static_cast<std::size_t>(dt_index)].offload_attempts;
  // Retry on the same group, or — once it is degraded — on a spare one.
  const int retry_group =
      group_degraded(group) ? first_free_usable_group() : group;
  // offload_stencil / run_stencil_on_mpe close the checker's task scope,
  // so a recovery pass must re-open it.
  if (attempt < kMaxOffloadAttempts && retry_group >= 0) {
    counters_.fault_retries += 1;
    charge_retry_backoff(dt_index, attempt);
    if (config_.checker != nullptr) config_.checker->begin_task(dt_index);
    return retry_group;
  }
  // Out of retries (or out of CPE groups): run the kernel on the MPE. The
  // stencil kernels are pure, so the re-execution overwrites the offload's
  // outputs with identical values.
  if (config_.checker != nullptr) config_.checker->begin_task(dt_index);
  run_stencil_on_mpe(ctx, dt_index);
  return -1;
}

void Scheduler::run_mpe_body(task::TaskContext& ctx, int dt_index) {
  const task::DetailedTask& dt = graph_.tasks[static_cast<std::size_t>(dt_index)];
  const grid::Patch& patch = level_.patch(dt.patch_id);
  if (dt.task->type() == task::Task::Type::kMpeAction) {
    const TimePs cost = dt.task->mpe_action()(ctx, patch);
    USW_ASSERT_MSG(cost >= 0, "MPE action returned negative cost");
    comm_.advance(cost);
    counters_.mpe_task_time += cost;
  } else if (dt.task->type() == task::Task::Type::kReduction) {
    // The local part is an indivisible whole-field scan on the MPE; the
    // completion flag is not polled until it finishes, which is what makes
    // completion detection late when kernels are short.
    const TimePs scan = comm_.net().cost().mpe_compute(
        static_cast<std::uint64_t>(patch.cells().volume()), dt.task->scan_cost());
    comm_.advance(scan);
    counters_.mpe_task_time += scan;
    int ri = -1;
    for (std::size_t r = 0; r < graph_.reductions.size(); ++r)
      if (graph_.reductions[r].task == dt.task) ri = static_cast<int>(r);
    USW_ASSERT(ri >= 0);
    if (ctx.functional) {
      const double v = dt.task->reduction_local()(ctx, patch);
      double& acc = reduction_acc_[static_cast<std::size_t>(ri)];
      acc = dt.task->reduce_op() == task::ReduceOp::kMax ? std::max(acc, v)
                                                          : acc + v;
    }
    reduction_remaining_[static_cast<std::size_t>(ri)] -= 1;
  } else {
    USW_ASSERT_MSG(false, "stencil task routed to run_mpe_body");
  }
  if (config_.checker != nullptr) config_.checker->end_task();
}

void Scheduler::on_finished(task::TaskContext& ctx, int dt_index) {
  const task::DetailedTask& dt = graph_.tasks[static_cast<std::size_t>(dt_index)];
  DtState& st = state_[static_cast<std::size_t>(dt_index)];
  USW_ASSERT_MSG(!st.done, "detailed task finished twice");
  st.done = true;
  ++done_count_;
  record(obs::FlightKind::kTaskEnd, comm_.now(), dt_index);
  // Sec V-C 3(b)i: post one nonblocking send per message of the
  // completed task.
  for (const task::ExtComm& sc : dt.sends) post_send(ctx, sc, dt_index);
  for (int succ : dt.successors) {
    DtState& ss = state_[static_cast<std::size_t>(succ)];
    USW_ASSERT(ss.pending_preds > 0);
    if (--ss.pending_preds == 0 && ss.pending_recvs == 0 && !ss.done)
      ready_.insert(succ);
  }
}

void Scheduler::collect_open_ids() {
  open_ids_.clear();
  for (const OpenRequest& r : open_recvs_) open_ids_.push_back(r.id);
  for (const OpenRequest& s : open_sends_) open_ids_.push_back(s.id);
}

bool Scheduler::progress_comm(task::TaskContext& ctx) {
  if (open_recvs_.empty() && open_sends_.empty()) return false;
  collect_open_ids();
  comm_.test_bulk(open_ids_);

  bool any = false;
  // Completed receives: unpack into the consumer's halo and update deps.
  std::size_t w = 0;
  for (const OpenRequest& open : open_recvs_) {
    const comm::RequestId req = open.id;
    if (!comm_.done(req)) {
      open_recvs_[w++] = open;
      continue;
    }
    any = true;
    const task::ExtComm& rc = *open.comm;
    const int dti = open.dt;
    if (config_.checker != nullptr) config_.checker->record_recv_unpack(dti, rc);
    if (config_.hb != nullptr)
      config_.hb->write(-1, rc.label, rc.dw, rc.to_patch, rc.region,
                        graph_.tasks[static_cast<std::size_t>(dti)].task->name());
    const TimePs unpack_cost = comm_.net().cost().mpe_pack(rc.bytes());
    comm_.advance(unpack_cost);
    counters_.comm_time += unpack_cost;
    counters_.pack_bytes += rc.bytes();
    var::DataWarehouse& dw = dw_for(ctx, rc.dw);
    if (dw.functional()) {
      const auto payload = comm_.take_payload(req);
      dw.get(rc.label, rc.to_patch).unpack(rc.region, payload);
    }
    if (config_.metrics != nullptr)
      sample(Metric::kRecvBytes, static_cast<double>(rc.bytes()));
    record(obs::FlightKind::kRecvDone, comm_.now(), dti, rc.id);
    DtState& st = state_[static_cast<std::size_t>(dti)];
    USW_ASSERT(st.pending_recvs > 0);
    if (--st.pending_recvs == 0 && st.pending_preds == 0 && !st.done)
      ready_.insert(dti);
  }
  open_recvs_.resize(w);

  // Completed sends leave the outstanding set, closing their message's
  // injection span.
  std::size_t sw = 0;
  for (const OpenRequest& open : open_sends_) {
    if (comm_.done(open.id)) {
      any = true;
      record(obs::FlightKind::kSendDone, comm_.now(), open.dt, open.comm->id);
    } else {
      open_sends_[sw++] = open;
    }
  }
  open_sends_.resize(sw);
  return any;
}

void Scheduler::idle_wait() {
  const TimePs cluster_wake = cluster_.earliest_completion();
  collect_open_ids();
  const TimePs wake =
      std::min(cluster_wake, comm_.earliest_known_completion(open_ids_));
  const TimePs before = comm_.now();
  record(obs::FlightKind::kWaitBegin, before, -1);
  // Nothing progresses while the MPE sleeps: the caller's next
  // progress_comm() poll picks up what arrived.
  comm_.wait_until_time(wake);
  counters_.wait_time += comm_.now() - before;
  record(obs::FlightKind::kWaitEnd, comm_.now(), -1);
}

void Scheduler::run_loop_sync(task::TaskContext& ctx) {
  const int n = static_cast<int>(graph_.tasks.size());
  while (done_count_ < n) {
    const int t = pick_ready(-1);
    if (t >= 0) {
      mpe_part(ctx, t);
      if (is_stencil(t)) {
        // Degradation can retire every CPE group; those stencils run on
        // the MPE like sub-threshold kernels.
        const int g0 = (config_.mode == SchedulerMode::kMpeOnly ||
                        !is_offloadable(t))
                           ? -1
                           : first_usable_group();
        if (g0 < 0) {
          run_stencil_on_mpe(ctx, t);
        } else {
          // Synchronous MPE+CPE: offload, then spin on the flag
          // (Sec V-C, "synchronous MPE+CPE mode"). Group 0 unless it has
          // been degraded by fault injection. The spin is recorded as a
          // wait span: it is exactly the MPE idle time the async scheduler
          // reclaims, and the overlap-efficiency metric depends on seeing
          // it. A failed offload is retried or run on the MPE
          // (recover_offload).
          for (int g = g0; g >= 0;) {
            offload_stencil(ctx, t, g);
            record(obs::FlightKind::kWaitBegin, comm_.now(), t, g);
            cluster_.join(g);
            record(obs::FlightKind::kKernelEnd, cluster_.completion_time(g), t, g);
            if (config_.hb != nullptr) config_.hb->join(g);
            sample_offload_imbalance(g);
            record(obs::FlightKind::kWaitEnd, comm_.now(), t, g);
            record(obs::FlightKind::kOffloadEnd, comm_.now(), t, g);
            offloaded_[static_cast<std::size_t>(g)] = -1;
            g = offload_fault_check(t, g) ? recover_offload(ctx, t, g) : -1;
          }
        }
      } else {
        run_mpe_body(ctx, t);
      }
      on_finished(ctx, t);
      continue;
    }
    if (!progress_comm(ctx)) idle_wait();
  }
}

void Scheduler::run_loop_async(task::TaskContext& ctx) {
  const int n = static_cast<int>(graph_.tasks.size());
  const int groups = cluster_.n_groups();
  auto any_offloaded = [this] {
    for (int dt : offloaded_)
      if (dt >= 0) return true;
    return false;
  };
  while (done_count_ < n || any_offloaded()) {
    bool progressed = false;
    // 3b: check the completion flags; on completion post sends, mark done.
    // The sweep order is a schedule point (kOffloadPoll): with several
    // offloads in flight, which completion the MPE processes first is a
    // real nondeterminism on the hardware.
    for (const int g : cluster_.poll_order()) {
      if (offloaded_[static_cast<std::size_t>(g)] >= 0 && cluster_.poll(g)) {
        const int finished = offloaded_[static_cast<std::size_t>(g)];
        offloaded_[static_cast<std::size_t>(g)] = -1;
        record(obs::FlightKind::kKernelEnd, cluster_.completion_time(g), finished, g);
        if (config_.hb != nullptr) config_.hb->join(g);
        sample_offload_imbalance(g);
        record(obs::FlightKind::kOffloadEnd, comm_.now(), finished, g);
        const int retry = offload_fault_check(finished, g)
                              ? recover_offload(ctx, finished, g)
                              : -1;
        if (retry >= 0)
          offload_stencil(ctx, finished, retry);
        else
          on_finished(ctx, finished);
        progressed = true;
      }
    }
    // 3(b)ii-iv: fill every free (non-degraded) group with a ready
    // offloadable task — process its MPE part, offload, return immediately.
    bool offloaded_now = false;
    for (int g = 0; g < groups; ++g) {
      if (offloaded_[static_cast<std::size_t>(g)] >= 0 || group_degraded(g))
        continue;
      const int s = pick_ready(1);
      if (s < 0) break;
      mpe_part(ctx, s);
      offload_stencil(ctx, s, g);
      offloaded_now = true;
    }
    if (offloaded_now) continue;
    // 3c: test posted sends and receives.
    if (progress_comm(ctx)) progressed = true;
    // 3d: execute other MPE tasks (reductions, small kernels) — and, once
    // every CPE group has been degraded, the stencils too.
    int m = pick_ready(0);
    if (m < 0 && first_usable_group() < 0) m = pick_ready(1);
    if (m >= 0) {
      mpe_part(ctx, m);
      if (is_stencil(m))
        run_stencil_on_mpe(ctx, m);  // sub-threshold, or all groups degraded
      else
        run_mpe_body(ctx, m);
      on_finished(ctx, m);
      continue;
    }
    if (!progressed) idle_wait();
  }
}

void Scheduler::drain_sends() {
  USW_ASSERT_MSG(open_recvs_.empty(), "timestep ended with unmatched receives");
  if (!open_sends_.empty()) {
    collect_open_ids();
    comm_.wait_all(open_ids_);
    // The wait completed these sends without passing through
    // progress_comm(); close their spans here.
    for (const OpenRequest& open : open_sends_)
      record(obs::FlightKind::kSendDone, comm_.now(), open.dt, open.comm->id);
  }
  open_sends_.clear();
}

void Scheduler::finalize_reductions(task::TaskContext& ctx) {
  for (std::size_t r = 0; r < graph_.reductions.size(); ++r) {
    const task::ReductionInfo& info = graph_.reductions[r];
    USW_ASSERT_MSG(reduction_remaining_[r] == 0,
                   "reduction finalized before all local parts ran");
    record(obs::FlightKind::kReduceBegin, comm_.now(), static_cast<int>(r));
    const double v = info.task->reduce_op() == task::ReduceOp::kMax
                         ? comm_.allreduce_max(reduction_acc_[r])
                         : comm_.allreduce_sum(reduction_acc_[r]);
    counters_.reductions += 1;
    ctx.new_dw->put_reduction(info.task->reduction_result(), v);
    record(obs::FlightKind::kReduceEnd, comm_.now(), static_cast<int>(r));
  }
}

}  // namespace usw::sched
