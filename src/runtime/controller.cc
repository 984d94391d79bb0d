#include "runtime/controller.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include <memory>
#include <optional>
#include <string>

#include "athread/athread.h"
#include "check/comm_lint.h"
#include "check/hb.h"
#include "io/archive.h"
#include "comm/comm.h"
#include "hw/cost_model.h"
#include "runtime/observe.h"
#include "sched/scheduler.h"
#include "sim/coordinator.h"
#include "support/error.h"

namespace usw::runtime {

namespace {

/// Milliseconds of host wall-clock elapsed since `t0`.
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Restores archive step `step` as the state the next timestep advances:
/// every output field, checked against its patch's ghosted box, replaces
/// the contents of `new_dw` and is swapped into `old_dw`, and `ctx` takes
/// the step's time and dt. The fields were archived with their full
/// ghosted boxes, so a run continued from here reproduces the
/// uninterrupted run bit for bit.
void load_checkpoint(const io::Archive& archive, int step, const grid::Level& level,
                     const task::CompiledGraph& cg, var::DataWarehouse& old_dw,
                     var::DataWarehouse& new_dw, task::TaskContext& ctx) {
  const io::StepMeta meta = archive.read_step_meta(step);
  new_dw.clear();
  for (const task::OutputAlloc& oa : cg.outputs) {
    var::CCVariable<double> field =
        archive.read_field(step, oa.label->name(), oa.patch_id);
    if (field.box() != level.patch(oa.patch_id).ghosted(oa.ghost))
      throw ConfigError("restart field '" + oa.label->name() + "' has box " +
                        field.box().to_string() + ", expected patch " +
                        std::to_string(oa.patch_id) + " with " +
                        std::to_string(oa.ghost) + " ghosts");
    new_dw.adopt(oa.label, oa.patch_id, oa.ghost,
                 std::make_unique<var::CCVariable<double>>(std::move(field)));
  }
  old_dw.swap_in(new_dw);
  ctx.time = meta.time;
  ctx.dt = meta.dt;
}

}  // namespace

void RunConfig::validate() const {
  machine.validate();
  if (nranks <= 0) throw ConfigError("nranks must be positive");
  if (cpe_groups < 1 || machine.cpes_per_cg % cpe_groups != 0)
    throw ConfigError("cpe_groups must divide the CPE count");
  if (nranks > problem.num_patches())
    throw ConfigError("more ranks than patches (one patch is scheduled on one "
                      "CG at a time, Sec VII-A)");
  if (timesteps < 0) throw ConfigError("timesteps must be non-negative");
  if (storage == var::StorageMode::kFunctional) {
    // Refuse functional runs that would not fit comfortably in host memory.
    constexpr std::uint64_t kLimit = 6ull * 1024 * 1024 * 1024;
    if (problem.memory_bytes() > kLimit)
      throw ConfigError("problem needs " + format_bytes(problem.memory_bytes()) +
                        " of field data; use StorageMode::kTimingOnly");
  }
  if (output_interval < 0) throw ConfigError("output_interval must be >= 0");
  if (output_interval > 0 && output_dir.empty())
    throw ConfigError("output_interval set without output_dir");
  if ((output_interval > 0 || !restart_dir.empty()) &&
      storage != var::StorageMode::kFunctional)
    throw ConfigError("archive output/restart requires functional storage");
  if (recovery.step_deadline < 0)
    throw ConfigError("recovery.step_deadline must be >= 0");
  if (recovery.max_restarts < 0)
    throw ConfigError("recovery.max_restarts must be >= 0");
  if (recovery.step_deadline > 0 && output_interval == 0)
    throw ConfigError("recovery.step_deadline requires checkpointing "
                      "(output_dir + output_interval)");
  if (diag.hang_threshold < 0)
    throw ConfigError("diag.hang_threshold must be >= 0");
  if (!diag.dump_path.empty() && diag.flight_capacity == 0)
    throw ConfigError("diag.dump_path requires flight recording "
                      "(flight_capacity > 0)");
  if (stream.enabled() && stream.interval < 1)
    throw ConfigError("stream.interval must be >= 1");
}

TimePs RunResult::step_wall(int s) const {
  TimePs w = 0;
  for (const RankResult& r : ranks)
    w = std::max(w, r.step_walls.at(static_cast<std::size_t>(s)));
  return w;
}

TimePs RunResult::mean_step_wall() const {
  if (timesteps == 0) return 0;
  TimePs total = 0;
  for (int s = 0; s < timesteps; ++s) total += step_wall(s);
  return total / timesteps;
}

double RunResult::total_counted_flops() const {
  double f = 0.0;
  for (const RankResult& r : ranks) f += r.counters.counted_flops;
  return f;
}

double RunResult::achieved_gflops() const {
  TimePs total = 0;
  for (int s = 0; s < timesteps; ++s) total += step_wall(s);
  if (total == 0) return 0.0;
  return total_counted_flops() / ps_to_seconds(total) * 1e-9;
}

hw::PerfCounters RunResult::merged_counters() const {
  hw::PerfCounters sum;
  for (const RankResult& r : ranks) sum.merge(r.counters);
  return sum;
}

std::vector<check::Violation> RunResult::all_violations() const {
  std::vector<check::Violation> all;
  for (const RankResult& r : ranks)
    all.insert(all.end(), r.violations.begin(), r.violations.end());
  all.insert(all.end(), comm_violations.begin(), comm_violations.end());
  return all;
}

RunResult run_simulation(const RunConfig& config, const Application& app) {
  const auto host_setup_start = std::chrono::steady_clock::now();
  config.validate();

  const grid::Level level(config.problem.patch_layout, config.problem.patch_size);
  std::vector<double> patch_costs;
  patch_costs.reserve(static_cast<std::size_t>(level.num_patches()));
  for (const grid::Patch& p : level.patches())
    patch_costs.push_back(app.patch_cost(level, p));
  const grid::Partition part(level, config.nranks, config.partition, patch_costs);
  const hw::CostModel cost(config.machine);
  comm::Network network(config.nranks, cost);
  if (!config.faults.empty()) network.set_fault_plan(&config.faults);

  // Schedule-space exploration: one controller serves the whole run so
  // every decision site shares a single, totally ordered decision log
  // (every choose() happens on the token-holding rank thread or inside the
  // coordinator's pick, so the order is a pure function of the run). The
  // rank-pick lookahead is the minimum message latency: any rank strictly
  // inside the window cannot observe a message an unrun rank would send.
  const std::unique_ptr<schedpt::ScheduleController> schedule =
      schedpt::ScheduleController::make(config.schedule);
  if (schedule != nullptr) network.set_schedule(schedule.get());
  const TimePs lookahead =
      config.machine.net_latency + config.machine.mpi_sw_latency;

  task::TaskGraph init_graph;
  app.build_init_graph(init_graph, level);
  task::TaskGraph step_graph;
  app.build_step_graph(step_graph, level);
  // A configuration error, so it is raised here, before any rank thread
  // exists, rather than as a crash of every rank.
  init_graph.check_tag_space(level.num_patches());
  step_graph.check_tag_space(level.num_patches());

  // Checkpoint/restart configuration (validated before the ranks start so
  // configuration errors surface as exceptions, not cancelled runs).
  std::optional<io::Archive> restart_archive;
  io::StepMeta restart_meta;
  if (!config.restart_dir.empty()) {
    restart_archive.emplace(config.restart_dir);
    const io::ArchiveIndex index = restart_archive->read_index();
    if (index.patch_layout != config.problem.patch_layout ||
        index.patch_size != config.problem.patch_size)
      throw ConfigError("restart archive grid (" + index.patch_layout.to_string() +
                        " patches of " + index.patch_size.to_string() +
                        ") does not match the configured problem");
    int step = config.restart_step;
    if (step < 0) {
      const auto latest = restart_archive->latest_step();
      if (!latest) throw ConfigError("restart archive has no saved steps");
      step = *latest;
    }
    restart_meta = restart_archive->read_step_meta(step);
  }
  std::optional<io::Archive> output_archive;
  if (!config.output_dir.empty() && config.output_interval > 0) {
    output_archive.emplace(config.output_dir);
    io::ArchiveIndex index;
    index.patch_layout = config.problem.patch_layout;
    index.patch_size = config.problem.patch_size;
    for (const auto& t : step_graph.tasks())
      for (const task::Computes& c : t->computes_list())
        index.labels.push_back(c.label->name());
    output_archive->write_index(index);
  }

  RunResult result;
  result.nranks = config.nranks;
  result.timesteps = config.timesteps;
  result.first_step = restart_meta.step;
  result.ranks.resize(static_cast<std::size_t>(config.nranks));

  // Diagnostics: flight rings for every rank plus the coordinator, crash
  // and clean-finish dump writing, and the hang-watchdog sink. Declared
  // before the streamer so it outlives everything that records into its
  // rings.
  obs::DiagHub diag_hub(config.diag, config.nranks);

  // Streaming metrics (rank 0 emits while holding the token, so the other
  // ranks' counters are quiescent when read).
  std::optional<obs::MetricsStreamer> streamer;
  if (config.stream.enabled())
    streamer.emplace(config.stream, config.nranks, config.timesteps);
  std::vector<const hw::PerfCounters*> rank_counters;
  rank_counters.reserve(result.ranks.size());
  for (const RankResult& r : result.ranks) rank_counters.push_back(&r.counters);

  const auto host_run_start = std::chrono::steady_clock::now();
  const double host_setup_ms = ms_since(host_setup_start);

  sim::run_ranks(config.nranks, [&](sim::Coordinator& coord, int rank) {
    RankResult& out = result.ranks[static_cast<std::size_t>(rank)];

    // The rank's one event record: the ring for dumps and, when tracing,
    // the log that `trace` drains into spans as each step ends.
    obs::FlightRecorder& flight = diag_hub.rank_ring(rank);
    flight.keep_log(config.collect_trace);
    comm::Comm comm(network, coord, rank, &out.counters);
    comm.set_flight(&flight);
    comm.set_retransmit(config.recovery.retransmit);
    athread::CpeCluster cluster(cost, coord, rank, &out.counters,
                                config.cpe_groups);
    if (schedule != nullptr) cluster.set_schedule(schedule.get());
    sched::SchedulerConfig sched_config = config.variant.scheduler_config();
    sched_config.flight = &flight;
    sched_config.schedule = schedule.get();
    sched_config.async_dma = config.async_dma;
    sched_config.packed_tiles = config.packed_tiles;
    sched_config.tile_policy = config.tile_policy;
    sched_config.mpe_kernel_threshold_cells = config.mpe_kernel_threshold_cells;
    if (config.collect_metrics) {
      out.obs_metrics = std::make_shared<obs::MetricsRegistry>();
      sched_config.metrics = out.obs_metrics.get();
    }

    // Per-rank fault view: armed on the timestep scheduler only — the paper
    // evaluates steady-state timestepping, and a faulted initialization has
    // no checkpoint to recover to. Message-level faults live in the Network
    // (seeded per-seq hashes) and are active throughout.
    fault::FaultInjector injector(config.faults, rank);

    task::CompiledGraph cg_init = init_graph.compile(level, part, rank);
    // Initialization outputs must be allocated with the halo depth the
    // timestep graph will later require of them.
    for (task::OutputAlloc& oa : cg_init.outputs)
      oa.ghost = std::max(oa.ghost, step_graph.ghost_alloc_depth(oa.label));
    const task::CompiledGraph cg_step = step_graph.compile(level, part, rank);
    if (config.collect_trace || config.collect_metrics)
      out.graph_info = std::make_shared<const obs::TaskGraphInfo>(graph_info_of(cg_step));
    // The trace: the flight log's span edges, paired into spans after
    // initialization and after every step. The exporters name them from
    // the skeletons.
    std::optional<obs::SpanBuilder> trace;
    if (config.collect_trace) {
      out.init_graph_info = std::make_shared<const obs::TaskGraphInfo>(graph_info_of(cg_init));
      trace.emplace();
    }

    // Opt-in validation: one checker per compiled graph (declarations and
    // the happens-before closure differ between init and step), the
    // rank's dynamic happens-before oracle, and a static lint of each
    // graph's communication plan.
    std::unique_ptr<check::AccessChecker> init_checker;
    std::unique_ptr<check::AccessChecker> step_checker;
    std::unique_ptr<check::HbChecker> hb_checker;
    if (config.check.enabled) {
      hb_checker = std::make_unique<check::HbChecker>(rank);
      sched_config.hb = hb_checker.get();
      init_checker = std::make_unique<check::AccessChecker>(level, cg_init);
      step_checker = std::make_unique<check::AccessChecker>(level, cg_step);
      for (check::Violation& v : check::lint_compiled_graph(cg_init, rank))
        out.violations.push_back(std::move(v));
      for (check::Violation& v : check::lint_compiled_graph(cg_step, rank))
        out.violations.push_back(std::move(v));
    }

    // Crash-dump snapshot source, registered BEFORE initialization runs:
    // the canonical induced hang (an all-lost exchange with retransmission
    // disabled) already deadlocks during the init sends. The source only
    // reads rank-local state and never calls into the Coordinator (see
    // DiagHub's source contract). `diag_sched` points at the timestep
    // scheduler once it exists so mid-run dumps include queue depths.
    sched::Scheduler* diag_sched = nullptr;
    obs::DiagHub::Source diag_source =
        diag_hub.add_source(rank, [&](obs::JsonWriter& w) {
          w.key("comm");
          w.begin_object();
          w.kv("retransmit", comm.retransmit_enabled());
          w.key("pending");
          w.begin_array();
          for (const comm::Comm::PendingInfo& p : comm.pending_details()) {
            w.begin_object();
            w.kv("kind", p.send ? "send" : "recv");
            w.kv("peer", p.peer);
            w.kv("tag", p.tag);
            w.kv("bytes", p.bytes);
            w.kv("t_ps", p.stamp == sim::kNever
                             ? static_cast<std::int64_t>(-1)
                             : static_cast<std::int64_t>(p.stamp));
            w.kv("lost", p.lost);
            w.kv("attempts", p.attempts);
            w.kv("seq", p.msg_seq);
            w.kv("epoch", static_cast<std::uint64_t>(p.epoch));
            w.end_object();
          }
          w.end_array();
          w.end_object();
          w.key("cpe_groups_in_flight");
          w.begin_array();
          for (int g = 0; g < config.cpe_groups; ++g)
            if (cluster.in_flight(g)) w.value(g);
          w.end_array();
          if (diag_sched != nullptr) {
            const sched::Scheduler::DiagStats d = diag_sched->diag_stats();
            w.key("scheduler");
            w.begin_object();
            w.kv("step", d.step);
            w.kv("ready", static_cast<std::uint64_t>(d.ready));
            w.kv("open_recvs", static_cast<std::uint64_t>(d.open_recvs));
            w.kv("open_sends", static_cast<std::uint64_t>(d.open_sends));
            w.kv("done", d.done);
            w.kv("offloads_in_flight", d.offloads_in_flight);
            w.kv("degraded_groups", d.degraded_groups);
            w.end_object();
          }
          if (hb_checker) {
            w.key("hb_clocks");
            w.begin_array();
            for (const auto& vc : hb_checker->clocks()) {
              w.begin_array();
              for (const std::uint64_t c : vc) w.value(c);
              w.end_array();
            }
            w.end_array();
          }
        });

    var::DataWarehouse old_dw(config.storage, -1);
    var::DataWarehouse new_dw(config.storage, 0);

    task::TaskContext ctx;
    ctx.level = &level;
    ctx.old_dw = &old_dw;
    ctx.new_dw = &new_dw;
    ctx.time = 0.0;
    ctx.dt = app.fixed_dt(level);
    ctx.functional = (config.storage == var::StorageMode::kFunctional);

    const auto host_init_start = std::chrono::steady_clock::now();
    int start_step = 0;
    if (restart_archive) {
      // Restore the saved state instead of initializing.
      load_checkpoint(*restart_archive, restart_meta.step, level, cg_step, old_dw,
                      new_dw, ctx);
      start_step = restart_meta.step;
    } else {
      // Initialization "timestep": tag step 15 cannot collide with the
      // first real steps, and all of its messages drain before execute()
      // returns.
      sched::SchedulerConfig init_config = sched_config;
      init_config.checker = init_checker.get();
      sched::Scheduler init_sched(init_config, level, cg_init, comm, cluster,
                                  out.counters);
      ctx.step = -1;
      out.init_wall = init_sched.execute(ctx).wall;
      old_dw.swap_in(new_dw);
    }
    if (trace) trace->drain(flight);
    out.host_init_ms = ms_since(host_init_start);
    // First watchdog heartbeat: initialization (or the restart load)
    // finished, so the stall clock starts from here, not from t=0.
    coord.heartbeat(rank);

    sched::SchedulerConfig step_config = sched_config;
    step_config.checker = step_checker.get();
    if (injector.active()) step_config.faults = &injector;
    sched::Scheduler sched(step_config, level, cg_step, comm, cluster,
                           out.counters);
    diag_sched = &sched;

    // Restart-capable step driver. Without a deadline this walks the steps
    // exactly like a plain for-loop; with recovery.step_deadline set, a
    // step whose (virtual) wall exceeds the deadline on any rank is rolled
    // back to the last checkpoint and replayed under a bumped fault
    // incarnation, up to recovery.max_restarts times.
    const bool deadline_active =
        config.recovery.step_deadline > 0 && output_archive.has_value();
    out.step_walls.reserve(static_cast<std::size_t>(config.timesteps));
    out.host_step_ms.reserve(static_cast<std::size_t>(config.timesteps));
    int completed = 0;   // timesteps finished (relative to start_step)
    int last_ckpt = -1;  // archive step of the newest checkpoint written
    int restarts_done = 0;
    while (completed < config.timesteps) {
      const int s = completed;
      ctx.step = start_step + s;
      new_dw.set_step(ctx.step + 1);
      flight.record(obs::FlightKind::kStepBegin, coord.now(rank), ctx.step);
      const auto host_step_start = std::chrono::steady_clock::now();
      const sched::StepStats stats = sched.execute(ctx);
      if (trace) {
        const std::size_t before = trace->size();
        trace->drain(flight);
        // Every step records about as many spans as the first: room for
        // them all at once, instead of growing the storage by doubling.
        if (s == 0)
          trace->reserve(trace->size() + (trace->size() - before) *
                                             static_cast<std::size_t>(config.timesteps - 1));
      }
      const double host_step_ms = ms_since(host_step_start);
      if (deadline_active) {
        // Collective verdict: the restart decision must be identical on
        // every rank, so it is taken on the max wall across ranks (a
        // double holds any TimePs this simulation produces exactly).
        const double wall_max =
            comm.allreduce_max(static_cast<double>(stats.wall));
        if (wall_max > static_cast<double>(config.recovery.step_deadline) &&
            last_ckpt >= 0 && restarts_done < config.recovery.max_restarts) {
          ++restarts_done;
          out.counters.fault_restarts += 1;
          flight.record(obs::FlightKind::kRestart, coord.now(rank),
                        restarts_done, last_ckpt);
          // Fresh fault draws for the replay, or a step-pinned fault would
          // deterministically re-fire forever (max_restarts still bounds
          // that pathological case).
          injector.bump_incarnation();
          load_checkpoint(*output_archive, last_ckpt, level, cg_step, old_dw, new_dw,
                          ctx);
          completed = last_ckpt - start_step;
          // The replayed steps are counted once, from their committed
          // attempt.
          if (trace) trace->roll_back(last_ckpt);
          out.step_walls.resize(static_cast<std::size_t>(completed));
          out.host_step_ms.resize(static_cast<std::size_t>(completed));
          continue;
        }
      }
      out.step_walls.push_back(stats.wall);
      out.host_step_ms.push_back(host_step_ms);
      if (output_archive &&
          ((s + 1) % config.output_interval == 0 || s + 1 == config.timesteps)) {
        // Save the just-computed state; the archive step counts completed
        // timesteps. Every rank writes its own patches; rank 0 the meta.
        const int archive_step = ctx.step + 1;
        if (rank == 0)
          output_archive->write_step_meta(
              io::StepMeta{archive_step, ctx.time + ctx.dt, ctx.dt});
        for (const task::OutputAlloc& oa : cg_step.outputs)
          output_archive->write_field(archive_step, oa.label->name(),
                                      oa.patch_id,
                                      new_dw.get(oa.label, oa.patch_id));
        last_ckpt = archive_step;
        flight.record(obs::FlightKind::kCheckpoint, coord.now(rank),
                      archive_step);
      }
      ctx.time += ctx.dt;
      ctx.dt = app.next_dt(ctx, ctx.dt);
      old_dw.swap_in(new_dw);
      ++completed;
      flight.record(obs::FlightKind::kStepEnd, coord.now(rank), ctx.step);
      coord.heartbeat(rank);
      if (rank == 0 && streamer &&
          (completed % streamer->interval() == 0 ||
           completed == config.timesteps))
        streamer->emit(ctx.step, coord.now(rank), rank_counters);
    }

    app.on_rank_complete(ctx, comm, part.patches_of(rank), out.metrics);

    if (init_checker)
      for (check::Violation& v : init_checker->take_violations())
        out.violations.push_back(std::move(v));
    if (step_checker)
      for (check::Violation& v : step_checker->take_violations())
        out.violations.push_back(std::move(v));
    if (hb_checker) {
      for (check::Violation& v : hb_checker->take_violations())
        out.violations.push_back(std::move(v));
      if (config.collect_metrics) {
        obs::MetricsRegistry& m = *out.obs_metrics;
        m.count("hb.accesses", static_cast<double>(hb_checker->accesses_recorded()));
        m.count("hb.pairs_checked", static_cast<double>(hb_checker->pairs_checked()));
        m.count("hb.forks", static_cast<double>(hb_checker->forks()));
      }
    }
    if (trace) out.trace = std::make_shared<const std::vector<obs::Span>>(trace->finish());
  }, schedule.get(), lookahead, &diag_hub, config.diag.hang_threshold);

  if (config.check.enabled)
    result.comm_violations = check::lint_network_shutdown(network);

  if (schedule != nullptr) {
    // Record/fuzz write their schedule file; replay verifies the recording
    // was fully consumed (StateError names the first unconsumed point).
    schedule->finish();
    result.schedule_points = schedule->counters();
    if (config.collect_metrics && !result.ranks.empty()) {
      obs::MetricsRegistry& m = *result.ranks[0].obs_metrics;
      for (int k = 0; k < schedpt::kNumPointKinds; ++k) {
        const auto kind = static_cast<schedpt::PointKind>(k);
        if (result.schedule_points.of(kind) > 0)
          m.count(std::string("schedpt.") + schedpt::to_string(kind),
                  static_cast<double>(result.schedule_points.of(kind)));
      }
    }
  }

  // Host-side profile: phase timers, per-rank init/step wall-clock and
  // schedule-point overhead. Kept in its own registry — host numbers never
  // enter the per-rank (gated) metrics or default stdout.
  obs::MetricsRegistry& hostm = result.host;
  hostm.count("host.setup_ms", host_setup_ms);
  hostm.count("host.run_ms", ms_since(host_run_start));
  if (config.timesteps > 0)
    hostm.reserve("host.step_ms", result.ranks.size() *
                                      static_cast<std::size_t>(config.timesteps));
  for (const RankResult& r : result.ranks) {
    hostm.sample("host.rank_init_ms", r.host_init_ms);
    for (const double ms : r.host_step_ms) hostm.sample("host.step_ms", ms);
  }
  if (schedule != nullptr) {
    const schedpt::ScheduleController::HostOverhead oh =
        schedule->host_overhead();
    for (int k = 0; k < schedpt::kNumPointKinds; ++k) {
      if (oh.calls[k] == 0) continue;
      const std::string base =
          std::string("host.schedpt_") +
          schedpt::to_string(static_cast<schedpt::PointKind>(k));
      hostm.count(base + "_ns", static_cast<double>(oh.ns[k]));
      hostm.count(base + "_calls", static_cast<double>(oh.calls[k]));
    }
  }

  // Clean-finish diagnostic dump (crash dumps were written by the hub's
  // on_crash before run_ranks rethrew; this path only runs on success).
  result.diag_dump_path = diag_hub.write_final(&result.host);

  return result;
}

}  // namespace usw::runtime
