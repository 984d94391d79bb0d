// uswsim: the standalone simulation driver (the role of Uintah's `sus`).
//
// Selects an application, grid, scheduler variant, and machine knobs from
// the command line; runs the simulation; prints per-step timings, the
// scheduler's time breakdown, verification metrics, and (optionally)
// writes an output archive.
//
// Examples:
//   $ ./uswsim --app=burgers --problem=32x64x512 --ranks=16
//              --variant=acc_simd.async --timing-only
//   $ ./uswsim --app=heat --layout=4x4x2 --patch=12x12x12 --steps=25
//              --stages=2 --ranks=8
//   $ ./uswsim --app=advect --layout=4x4x2 --patch=16x16x16 --steps=40
//              --output=/tmp/advect_run --output-interval=10
//   $ ./uswsim --app=burgers --layout=2x2x2 --patch=12x12x12
//              --restart=/tmp/checkpoint --steps=5
//
// Run with --help for the full option list.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "apps/advect/advect_app.h"
#include "apps/burgers/burgers_app.h"
#include "apps/heat/heat_app.h"
#include "obs/chrome_trace.h"
#include "obs/host_profile.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "sched/tile_exec.h"
#include "schedpt/schedule.h"
#include "support/build_info.h"
#include "support/options.h"
#include "support/table.h"

namespace {

using namespace usw;

/// The tile shapes the planner chooses for the stencil kernels of `app`'s
/// timestep on the problem's patches (sched::tile_shape_for), distinct, in
/// task order: "16x16x8", or "16x16x4" under --async-dma.
std::string tile_shapes(const runtime::Application& app, const runtime::RunConfig& config) {
  const grid::Level level(config.problem.patch_layout, config.problem.patch_size);
  task::TaskGraph graph;
  app.build_step_graph(graph, level);
  std::vector<grid::IntVec> shapes;
  std::string text;
  for (const auto& t : graph.tasks()) {
    if (t->type() != task::Task::Type::kStencil) continue;
    const grid::IntVec shape = sched::tile_shape_for(
        t->kernel(), config.problem.patch_size, config.async_dma, config.machine.ldm_bytes);
    if (std::find(shapes.begin(), shapes.end(), shape) != shapes.end()) continue;
    shapes.push_back(shape);
    text += (text.empty() ? "" : ", ") + shape.to_string();
  }
  return text;
}

void print_help() {
  std::puts(
      "uswsim - Uintah-style AMT runtime on a simulated Sunway TaihuLight\n"
      "\n"
      "application selection:\n"
      "  --app=burgers|heat|advect     (default burgers)\n"
      "  --stages=1|2                  heat only: sub-steps per timestep\n"
      "  --heavy=F                     advect only: pulse-region work factor\n"
      "  --ieee-exp                    burgers only: IEEE exp library\n"
      "  --hotspot=F                   burgers only: tiles near the domain\n"
      "                                center cost F x (virtual time only;\n"
      "                                skews tile costs for --tile-policy)\n"
      "  --hotspot-radius=R            hotspot sphere radius as a fraction\n"
      "                                of the domain extent (default 0.25)\n"
      "\n"
      "problem selection (choose one):\n"
      "  --problem=NAME                a Table III problem (e.g. 32x64x512)\n"
      "  --layout=AxBxC --patch=XxYxZ  a custom grid\n"
      "\n"
      "run configuration:\n"
      "  --ranks=N                     simulated core-groups (default 4)\n"
      "  --steps=N                     timesteps (default 10)\n"
      "  --variant=NAME                Table IV variant (default acc_simd.async)\n"
      "  --timing-only                 skip field allocation (big problems)\n"
      "  --partition=block|roundrobin|cost\n"
      "  --cpe-groups=N  --async-dma  --packed-tiles\n"
      "  --tile-policy=static|dynamic\n"
      "                                tile->CPE assignment per offload:\n"
      "                                static = the paper's z-slab partition,\n"
      "                                dynamic = atomic-counter self-scheduling\n"
      "                                (one tile per grab); both deterministic\n"
      "  --mpe-threshold=CELLS         small-kernel MPE heuristic\n"
      "  --trace                       pair every rank's span edges into\n"
      "                                spans as each step ends, and print\n"
      "                                rank 0's spans\n"
      "  --validate                    check every DW access against the\n"
      "                                task graph and lint the comm plan;\n"
      "                                also runs the happens-before race\n"
      "                                oracle over offload fork/join edges;\n"
      "                                exit 2 if violations are found\n"
      "\n"
      "schedule exploration (src/schedpt; numerics are bit-equal across\n"
      "schedules on fault-free runs):\n"
      "  --schedule=fuzz:seed=N[:file=F]\n"
      "                                perturb rank-pick, message-match,\n"
      "                                offload-poll and tile-grab decisions\n"
      "                                within causal bounds; optionally\n"
      "                                record the schedule taken to F\n"
      "  --schedule=record:file=F      take the canonical schedule and\n"
      "                                record every decision point to F\n"
      "  --schedule=replay:file=F      re-execute a recorded schedule\n"
      "                                exactly; a divergent run fails fast\n"
      "                                naming the first mismatched point\n"
      "\n"
      "observability (each implies trace + metrics collection):\n"
      "  --trace-json=FILE             Chrome/Perfetto trace of every rank\n"
      "                                (load in ui.perfetto.dev or\n"
      "                                chrome://tracing)\n"
      "  --metrics-json=FILE           per-step and per-task metrics, with\n"
      "                                overlap efficiency and critical path\n"
      "  --report                      print the breakdown tables and the\n"
      "                                critical chain of the slowest step\n"
      "\n"
      "diagnostics (flight recorder + hang watchdog, on by default; no\n"
      "effect on numerics or virtual times):\n"
      "  --diag-dump=FILE              write a structured JSON diagnostic\n"
      "                                dump on crash/hang AND on clean exit\n"
      "                                (without it, crashes still auto-dump\n"
      "                                to uswsim_crash_diag.json)\n"
      "  --flight-capacity=N           events kept in each rank's flight\n"
      "                                ring for dumps (default 256; 0 turns\n"
      "                                the rings off; a traced run still\n"
      "                                keeps its full log)\n"
      "  --hang-threshold-us=N         hang watchdog: cancel + dump when\n"
      "                                virtual time advances N us past the\n"
      "                                last completed step (default\n"
      "                                600000000 = 10 virtual minutes; 0\n"
      "                                disables)\n"
      "  --retransmit=0|1              message-loss retransmission (default\n"
      "                                1; 0 turns an all-lost exchange into\n"
      "                                a detectable hang - diagnostics\n"
      "                                smoke-test knob)\n"
      "  --metrics-stream=FILE[:N]     append one JSONL metrics snapshot\n"
      "                                every N completed steps (default 1)\n"
      "  --version                     print build provenance and exit\n"
      "\n"
      "fault injection / resilience (deterministic, seeded):\n"
      "  --inject=SPEC                 kind[:key=val...][,kind...] with kinds\n"
      "                                cpe_stall, offload_fail, dma_error,\n"
      "                                msg_delay, msg_loss and keys p=PROB,\n"
      "                                step=N, factor=F; e.g.\n"
      "                                cpe_stall:p=1e-3,msg_loss:p=1e-2\n"
      "  --fault-seed=N                injection hash seed (default 1)\n"
      "  --step-deadline-us=N          restart the step from the last\n"
      "                                checkpoint when its virtual wall\n"
      "                                exceeds N us (needs --output +\n"
      "                                --output-interval; 0 = off)\n"
      "  --max-restarts=N              checkpoint-restart cap (default 4)\n"
      "\n"
      "output / restart (functional storage only):\n"
      "  --output=DIR --output-interval=N\n"
      "  --restart=DIR [--restart-step=S]\n"
      "\n"
      "Any other --option, or one the chosen --app does not take, is an\n"
      "error.\n"
      "\n"
      "exit codes:\n"
      "  0  the run completed (and --validate found no violation)\n"
      "  1  usage or configuration error\n"
      "  2  --validate found violations\n"
      "  3  the run did not complete (e.g. a virtual-time deadlock, the hang\n"
      "     watchdog, a diverged schedule replay, an I/O error)\n");
}

grid::IntVec parse_triple(const std::string& s, const char* what) {
  grid::IntVec v;
  int consumed = 0;
  // %n + full-consume: "16x16x16junk" and "16x16" must both be rejected,
  // not silently truncated or zero-filled.
  if (std::sscanf(s.c_str(), "%dx%dx%d%n", &v.x, &v.y, &v.z, &consumed) != 3 ||
      consumed != static_cast<int>(s.size()))
    throw ConfigError(std::string(what) + " expects AxBxC, got '" + s + "'");
  if (v.x <= 0 || v.y <= 0 || v.z <= 0)
    throw ConfigError(std::string(what) + " components must be positive, got '" +
                      s + "'");
  return v;
}

/// get_int with a lower bound; the error names the flag.
std::int64_t get_int_min(const Options& opts, const std::string& key,
                         std::int64_t def, std::int64_t min) {
  const std::int64_t v = opts.get_int(key, def);
  if (v < min)
    throw ConfigError("--" + key + " must be >= " + std::to_string(min) +
                      ", got " + std::to_string(v));
  return v;
}

/// get_double constrained to be strictly positive; the error names the flag.
double get_double_pos(const Options& opts, const std::string& key, double def) {
  const double v = opts.get_double(key, def);
  if (!(v > 0.0))
    throw ConfigError("--" + key + " must be positive, got '" +
                      opts.get(key) + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.get_bool("help", false)) {
    print_help();
    return 0;
  }
  if (opts.get_bool("version", false)) {
    std::printf("%s\n", build_info_line().c_str());
    std::printf("features: schedule=fuzz,record,replay "
                "diagnostics=flight,watchdog,stream\n");
    return 0;
  }
  try {
    runtime::RunConfig config;
    if (opts.has("problem")) {
      config.problem = runtime::problem_by_name(opts.get("problem"));
    } else {
      config.problem = runtime::tiny_problem(
          parse_triple(opts.get("layout", "4x4x2"), "--layout"),
          parse_triple(opts.get("patch", "16x16x16"), "--patch"));
    }
    config.variant = runtime::variant_by_name(opts.get("variant", "acc_simd.async"));
    config.nranks = static_cast<int>(get_int_min(opts, "ranks", 4, 1));
    config.timesteps = static_cast<int>(get_int_min(opts, "steps", 10, 0));
    config.storage = opts.get_bool("timing-only", false)
                         ? var::StorageMode::kTimingOnly
                         : var::StorageMode::kFunctional;
    const std::string partition = opts.get("partition", "block");
    if (partition == "block") config.partition = grid::PartitionPolicy::kBlock;
    else if (partition == "roundrobin") config.partition = grid::PartitionPolicy::kRoundRobin;
    else if (partition == "cost") config.partition = grid::PartitionPolicy::kCostBalanced;
    else throw ConfigError("unknown --partition '" + partition + "'");
    config.cpe_groups = static_cast<int>(get_int_min(opts, "cpe-groups", 1, 1));
    config.async_dma = opts.get_bool("async-dma", false);
    config.packed_tiles = opts.get_bool("packed-tiles", false);
    config.tile_policy =
        sched::tile_policy_from_string(opts.get("tile-policy", "static"));
    config.mpe_kernel_threshold_cells =
        static_cast<std::uint64_t>(get_int_min(opts, "mpe-threshold", 0, 0));
    config.faults = fault::FaultPlan::parse(
        opts.get("inject", ""),
        static_cast<std::uint64_t>(get_int_min(opts, "fault-seed", 1, 0)));
    config.recovery.step_deadline =
        get_int_min(opts, "step-deadline-us", 0, 0) * kMicrosecond;
    config.recovery.max_restarts =
        static_cast<int>(get_int_min(opts, "max-restarts", 4, 0));
    config.collect_trace = opts.get_bool("trace", false);
    const std::string trace_json = opts.get("trace-json", "");
    const std::string metrics_json = opts.get("metrics-json", "");
    const bool report = opts.get_bool("report", false);
    if (!trace_json.empty() || !metrics_json.empty() || report) {
      config.collect_trace = true;
      config.collect_metrics = true;
    }
    config.check.enabled = opts.get_bool("validate", false);
    config.schedule = schedpt::ScheduleSpec::parse(opts.get("schedule", ""));
    // Diagnostics: crashes always auto-dump; --diag-dump adds an explicit
    // target that is also written on clean exit.
    config.diag.dump_on_crash = true;
    if (opts.has("diag-dump") && opts.get("diag-dump").empty())
      throw ConfigError("--diag-dump requires a file path");
    config.diag.dump_path = opts.get("diag-dump", "");
    config.diag.flight_capacity =
        static_cast<std::size_t>(get_int_min(opts, "flight-capacity", 256, 0));
    if (!config.diag.dump_path.empty() && config.diag.flight_capacity == 0)
      throw ConfigError("--diag-dump requires flight recording; raise "
                        "--flight-capacity");
    config.diag.hang_threshold =
        get_int_min(opts, "hang-threshold-us", 600'000'000, 0) * kMicrosecond;
    config.recovery.retransmit = opts.get_bool("retransmit", true);
    if (opts.has("metrics-stream"))
      config.stream = obs::StreamSpec::parse(opts.get("metrics-stream"));
    config.output_dir = opts.get("output", "");
    config.output_interval =
        static_cast<int>(get_int_min(opts, "output-interval", 0, 0));
    config.restart_dir = opts.get("restart", "");
    config.restart_step =
        static_cast<int>(get_int_min(opts, "restart-step", -1, -1));

    const std::string app_name = opts.get("app", "burgers");
    std::unique_ptr<runtime::Application> app;
    if (app_name == "burgers") {
      apps::burgers::BurgersApp::Config ac;
      ac.use_ieee_exp = opts.get_bool("ieee-exp", false);
      ac.hotspot_factor = get_double_pos(opts, "hotspot", 1.0);
      ac.hotspot_radius = get_double_pos(opts, "hotspot-radius", 0.25);
      app = std::make_unique<apps::burgers::BurgersApp>(ac);
    } else if (app_name == "heat") {
      apps::heat::HeatApp::Config ac;
      ac.stages = static_cast<int>(get_int_min(opts, "stages", 1, 1));
      app = std::make_unique<apps::heat::HeatApp>(ac);
    } else if (app_name == "advect") {
      apps::advect::AdvectApp::Config ac;
      ac.heavy_factor = get_double_pos(opts, "heavy", 1.0);
      app = std::make_unique<apps::advect::AdvectApp>(ac);
    } else {
      throw ConfigError("unknown --app '" + app_name + "' (burgers|heat|advect)");
    }

    // Every flag this run uses has been read by now. Running with a typo,
    // a removed flag or a word without "--" as if it were absent would
    // silently change the experiment, so anything left over is an error.
    if (const std::vector<std::string> unread = opts.unread(); !unread.empty()) {
      std::string names;
      for (const std::string& arg : unread)
        names += (names.empty() ? "" : ", ") + arg;
      throw ConfigError("unrecognized option(s) " + names +
                        " (unknown, or not taken by --app=" + app_name + ")");
    }

    // The run's configuration: no field depends on the host, since every
    // CPE body runs inside its offload's spawn on the rank's own thread.
    std::printf("uswsim: %s on %s (%d patches of %s), %d CGs, %d steps, %s, "
                "%s tiles of %s\n",
                app->name().c_str(), config.problem.grid_size().to_string().c_str(),
                config.problem.num_patches(),
                config.problem.patch_size.to_string().c_str(), config.nranks,
                config.timesteps, config.variant.name.c_str(),
                sched::to_string(config.tile_policy),
                tile_shapes(*app, config).c_str());
    if (!config.faults.empty())
      std::printf("fault injection: %s\n", config.faults.describe().c_str());
    // Every schedule-exploration line starts with "schedule" so trace
    // comparisons across modes can strip them (grep -v '^schedule').
    if (config.schedule.mode != schedpt::Mode::kDefault)
      std::printf("schedule: %s\n", config.schedule.describe().c_str());

    const runtime::RunResult result = runtime::run_simulation(config, *app);

    if (config.schedule.mode != schedpt::Mode::kDefault) {
      const schedpt::PointCounters& pc = result.schedule_points;
      std::printf("schedule points: rank_pick=%llu msg_match=%llu "
                  "offload_poll=%llu tile_grab=%llu\n",
                  static_cast<unsigned long long>(pc.of(schedpt::PointKind::kRankPick)),
                  static_cast<unsigned long long>(pc.of(schedpt::PointKind::kMsgMatch)),
                  static_cast<unsigned long long>(pc.of(schedpt::PointKind::kOffloadPoll)),
                  static_cast<unsigned long long>(pc.of(schedpt::PointKind::kTileGrab)));
      if (!config.schedule.file.empty() &&
          config.schedule.mode != schedpt::Mode::kReplay)
        std::printf("schedule file written: %s\n", config.schedule.file.c_str());
    }
    if (!result.diag_dump_path.empty())
      std::printf("diagnostic dump written: %s\n", result.diag_dump_path.c_str());
    if (config.stream.enabled())
      std::printf("metrics stream written: %s\n", config.stream.file.c_str());

    TextTable table("timing (virtual)");
    table.set_header({"metric", "value"});
    table.add_row({"init", format_duration(result.ranks[0].init_wall)});
    table.add_row({"mean step", format_duration(result.mean_step_wall())});
    if (result.timesteps > 0) {
      table.add_row({"first step", format_duration(result.step_wall(0))});
      table.add_row({"last step", format_duration(result.step_wall(result.timesteps - 1))});
    }
    table.add_row({"achieved Gflop/s", TextTable::num(result.achieved_gflops(), 2)});
    const hw::PerfCounters sum = result.merged_counters();
    table.add_row({"CPE kernel time/CG", format_duration(sum.kernel_time / config.nranks)});
    table.add_row({"MPE task time/CG", format_duration(sum.mpe_task_time / config.nranks)});
    table.add_row({"comm time/CG", format_duration(sum.comm_time / config.nranks)});
    table.add_row({"idle wait/CG", format_duration(sum.wait_time / config.nranks)});
    table.add_row({"offloads", std::to_string(sum.kernels_offloaded)});
    table.add_row({"MPI messages", std::to_string(sum.messages_sent)});
    table.add_row({"MPI posts", std::to_string(sum.mpi_posts)});
    table.add_row({"MPI volume", format_bytes(sum.bytes_sent)});
    if (!config.faults.empty()) {
      table.add_row({"faults injected", std::to_string(sum.fault_injected)});
      table.add_row({"fault retries", std::to_string(sum.fault_retries)});
      table.add_row({"degraded groups", std::to_string(sum.fault_degraded)});
      table.add_row({"restarts", std::to_string(sum.fault_restarts)});
    }
    table.print(std::cout);

    if (!result.ranks[0].metrics.empty()) {
      std::printf("\nverification:\n");
      for (const auto& [key, value] : result.ranks[0].metrics)
        std::printf("  %-12s %.6e\n", key.c_str(), value);
    }
    if (opts.get_bool("trace", false)) {
      const runtime::RankResult& r0 = result.ranks[0];
      std::printf("\nrank 0 spans:\n%s",
                  obs::dump_spans(*r0.trace, *r0.init_graph_info, *r0.graph_info).c_str());
    }
    if (!trace_json.empty() || !metrics_json.empty() || report) {
      const obs::RunObservation observation = runtime::observe(result);
      if (!trace_json.empty()) {
        std::ofstream os(trace_json);
        if (!os) throw ConfigError("cannot write --trace-json file '" + trace_json + "'");
        obs::write_chrome_trace(os, observation);
        std::printf("\nwrote Chrome trace to %s\n", trace_json.c_str());
      }
      if (!metrics_json.empty() || report) {
        const obs::MetricsReport metrics = obs::build_metrics(observation);
        if (!metrics_json.empty()) {
          std::ofstream os(metrics_json);
          if (!os) throw ConfigError("cannot write --metrics-json file '" + metrics_json + "'");
          obs::write_metrics_json(os, metrics);
          std::printf("wrote metrics to %s\n", metrics_json.c_str());
        }
        if (report) {
          std::printf("\n");
          obs::print_report(std::cout, metrics);
          std::printf("\n");
          obs::print_host_profile(std::cout, result.host);
        }
      }
    }
    if (config.check.enabled) {
      const std::vector<check::Violation> violations = result.all_violations();
      if (violations.empty()) {
        std::printf("\nvalidation: clean (no violations)\n");
      } else {
        std::printf("\nvalidation: %zu violation(s):\n", violations.size());
        for (const check::Violation& v : violations)
          std::printf("  %s\n", v.to_string().c_str());
        return 2;
      }
    }
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "uswsim: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "uswsim: %s\n", e.what());
    return 3;
  }
}
