// Scheduler behavior tests: all three modes produce identical numerics,
// the async mode genuinely overlaps communication and MPE work with CPE
// kernels (verified from traces), timing invariants hold, and a task's tile
// plan, built once, runs exactly like one planned per offload.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "runtime/application.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "sched/scheduler.h"
#include "support/test_helpers.h"

using usw::test::slurp_tree;

namespace usw::sched {
namespace {

runtime::RunConfig tiny_config(const std::string& variant, int ranks,
                               var::StorageMode storage) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 2}, {8, 8, 16});
  cfg.variant = runtime::variant_by_name(variant);
  cfg.nranks = ranks;
  cfg.timesteps = 4;
  cfg.storage = storage;
  return cfg;
}

runtime::RunResult run(const std::string& variant, int ranks,
                       var::StorageMode storage = var::StorageMode::kFunctional,
                       bool trace = false) {
  runtime::RunConfig cfg = tiny_config(variant, ranks, storage);
  cfg.collect_trace = trace;
  apps::burgers::BurgersApp app;
  return runtime::run_simulation(cfg, app);
}

TEST(Scheduler, AllVariantsProduceIdenticalNumerics) {
  const auto reference = run("host.sync", 2);
  const double ref_linf = reference.ranks[0].metrics.at("linf_error");
  const double ref_umax = reference.ranks[0].metrics.at("u_max");
  for (const std::string v :
       {"acc.sync", "acc_simd.sync", "acc.async", "acc_simd.async"}) {
    const auto result = run(v, 2);
    // Scalar and SIMD kernels perform identical IEEE operations; the
    // schedulers only reorder independent work, so the solution must be
    // bit-for-bit identical in every mode.
    EXPECT_EQ(result.ranks[0].metrics.at("linf_error"), ref_linf) << v;
    EXPECT_EQ(result.ranks[0].metrics.at("u_max"), ref_umax) << v;
  }
}

TEST(Scheduler, AsyncNeverSlowerThanSync) {
  for (int ranks : {1, 2, 4}) {
    const auto sync_r = run("acc.sync", ranks, var::StorageMode::kTimingOnly);
    const auto async_r = run("acc.async", ranks, var::StorageMode::kTimingOnly);
    EXPECT_LE(async_r.mean_step_wall(), sync_r.mean_step_wall())
        << ranks << " ranks";
  }
}

TEST(Scheduler, OffloadCountsMatchGraph) {
  const auto result = run("acc.async", 2);
  const hw::PerfCounters sum = result.merged_counters();
  // 8 patches x (1 init on MPE is not offloaded) and 8 x 4 steps of the
  // advance stencil on the CPEs.
  EXPECT_EQ(sum.kernels_offloaded, 8u * 4u);
  EXPECT_EQ(sum.kernels_on_mpe, 0u);
  const auto host = run("host.sync", 2);
  EXPECT_EQ(host.merged_counters().kernels_offloaded, 0u);
  EXPECT_EQ(host.merged_counters().kernels_on_mpe, 8u * 4u);
}

TEST(Scheduler, TimingOnlyMatchesFunctionalTiming) {
  // The virtual-time result must not depend on whether field data is
  // materialized: benchmarks rely on this.
  for (const std::string v : {"acc.sync", "acc_simd.async"}) {
    const auto functional = run(v, 2, var::StorageMode::kFunctional);
    const auto timing = run(v, 2, var::StorageMode::kTimingOnly);
    ASSERT_EQ(functional.timesteps, timing.timesteps);
    for (int s = 0; s < functional.timesteps; ++s)
      EXPECT_EQ(functional.step_wall(s), timing.step_wall(s)) << v << " step " << s;
  }
}

TEST(Scheduler, DeterministicAcrossRepeats) {
  const auto a = run("acc_simd.async", 4, var::StorageMode::kTimingOnly);
  const auto b = run("acc_simd.async", 4, var::StorageMode::kTimingOnly);
  for (int s = 0; s < a.timesteps; ++s)
    EXPECT_EQ(a.step_wall(s), b.step_wall(s));
  for (int r = 0; r < a.nranks; ++r)
    EXPECT_EQ(a.ranks[static_cast<std::size_t>(r)].counters.counted_flops,
              b.ranks[static_cast<std::size_t>(r)].counters.counted_flops);
}

/// A rank's kernel flight windows, from its trace.
std::vector<obs::Span> kernel_spans(const obs::RankObservation& rank) {
  std::vector<obs::Span> out;
  for (const obs::Span& s : rank.spans())
    if (s.kind() == obs::SpanKind::kKernel) out.push_back(s);
  return out;
}

/// Whether `t` falls strictly inside one of `kernels`.
bool inside_a_kernel(TimePs t, const std::vector<obs::Span>& kernels) {
  return std::any_of(kernels.begin(), kernels.end(),
                     [t](const obs::Span& k) { return t > k.begin && t < k.end; });
}

TEST(Scheduler, AsyncOverlapsMpeWorkWithKernels) {
  // Trace evidence for the paper's central claim: in async mode, MPE-side
  // work (send posts, receive completions, MPE task begins) happens
  // strictly inside CPE kernel flight windows.
  const auto result = run("acc.async", 2, var::StorageMode::kFunctional, true);
  const obs::RunObservation observed = runtime::observe(result);
  int overlapped_events = 0;
  for (const obs::RankObservation& rank : observed.ranks) {
    const std::vector<obs::Span> kernels = kernel_spans(rank);
    EXPECT_FALSE(kernels.empty());
    for (const obs::Span& s : rank.spans()) {
      if (s.kind() != obs::SpanKind::kSend && s.kind() != obs::SpanKind::kRecv &&
          s.kind() != obs::SpanKind::kTask)
        continue;
      if (inside_a_kernel(s.kind() == obs::SpanKind::kRecv ? s.end : s.begin, kernels))
        ++overlapped_events;
    }
  }
  EXPECT_GT(overlapped_events, 10);
}

TEST(Scheduler, SyncModeDoesNotOverlap) {
  // In sync mode the MPE spins during kernel flight: no other span may
  // begin or end strictly inside a kernel window.
  const auto result = run("acc.sync", 2, var::StorageMode::kFunctional, true);
  const obs::RunObservation observed = runtime::observe(result);
  for (const obs::RankObservation& rank : observed.ranks) {
    const std::vector<obs::Span> kernels = kernel_spans(rank);
    EXPECT_FALSE(kernels.empty());
    for (const obs::Span& s : rank.spans()) {
      if (s.kind() == obs::SpanKind::kKernel) continue;
      EXPECT_FALSE(inside_a_kernel(s.begin, kernels))
          << obs::to_string(s.kind()) << " begins inside a kernel window";
      EXPECT_FALSE(inside_a_kernel(s.end, kernels))
          << obs::to_string(s.kind()) << " ends inside a kernel window";
    }
  }
}

TEST(Scheduler, ReductionValueIsGlobalAcrossRanks) {
  const auto one = run("acc.async", 1);
  const auto four = run("acc.async", 4);
  // max|u| is a global property of the solution: identical for any rank
  // count (and the solution itself is identical, tested elsewhere).
  EXPECT_EQ(one.ranks[0].metrics.at("u_max"), four.ranks[0].metrics.at("u_max"));
  // Every rank reports the same allreduced value.
  for (const auto& r : four.ranks)
    EXPECT_EQ(r.metrics.at("u_max"), four.ranks[0].metrics.at("u_max"));
}

TEST(Scheduler, WallTimesArePositiveAndStable) {
  const auto result = run("acc_simd.async", 2, var::StorageMode::kTimingOnly);
  for (int s = 0; s < result.timesteps; ++s) EXPECT_GT(result.step_wall(s), 0);
  // The workload is identical every step; after the first step (pipeline
  // warm-up: step 0 starts from the synchronized init, later steps from
  // the skewed end of the previous step) the walls repeat exactly.
  for (int s = 2; s < result.timesteps; ++s)
    EXPECT_EQ(result.step_wall(s), result.step_wall(1));
  EXPECT_NEAR(static_cast<double>(result.step_wall(0)),
              static_cast<double>(result.step_wall(1)),
              0.05 * static_cast<double>(result.step_wall(1)));
}

// ---------------------------------------------------------------------------
// Plan once: a task's tiling, tile->CPE assignment and CPE charges are
// built at its first offload and reused, unless a schedule controller
// makes every offload plan afresh.

namespace fs = std::filesystem;

void expect_same_counters(const hw::PerfCounters& a, const hw::PerfCounters& b,
                          const std::string& where) {
  EXPECT_EQ(a.counted_flops, b.counted_flops) << where;  // bitwise
  EXPECT_EQ(a.cells_computed, b.cells_computed) << where;
  EXPECT_EQ(a.tiles_executed, b.tiles_executed) << where;
  EXPECT_EQ(a.tile_grabs, b.tile_grabs) << where;
  EXPECT_EQ(a.kernels_offloaded, b.kernels_offloaded) << where;
  EXPECT_EQ(a.kernels_on_mpe, b.kernels_on_mpe) << where;
  EXPECT_EQ(a.dma_bytes_in, b.dma_bytes_in) << where;
  EXPECT_EQ(a.dma_bytes_out, b.dma_bytes_out) << where;
  EXPECT_EQ(a.pack_bytes, b.pack_bytes) << where;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << where;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << where;
  EXPECT_EQ(a.mpi_posts, b.mpi_posts) << where;
  EXPECT_EQ(a.fault_injected, b.fault_injected) << where;
  EXPECT_EQ(a.fault_retries, b.fault_retries) << where;
  EXPECT_EQ(a.fault_degraded, b.fault_degraded) << where;
  EXPECT_EQ(a.kernel_time, b.kernel_time) << where;
  EXPECT_EQ(a.mpe_task_time, b.mpe_task_time) << where;
  EXPECT_EQ(a.comm_time, b.comm_time) << where;
  EXPECT_EQ(a.wait_time, b.wait_time) << where;
}

struct PlanRun {
  TilePolicy policy = TilePolicy::kStaticZ;
  bool async_dma = false;
  bool faults = false;
  var::StorageMode storage = var::StorageMode::kFunctional;

  std::string name() const {
    return std::string(to_string(policy)) + (async_dma ? "/async-dma" : "/sync-dma") +
           (faults ? "/faults" : "/clean") +
           (storage == var::StorageMode::kFunctional ? "/functional" : "/timing");
  }

  /// Three steps of Burgers on hotspot-skewed 16^3 patches of 8 tiles.
  /// `per_offload` installs a recording (canonical) schedule controller,
  /// which makes every offload plan its tiles afresh; functional runs
  /// archive every step into `dir`.
  runtime::RunResult execute(bool per_offload, const std::string& dir) const {
    runtime::RunConfig config;
    config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
    config.variant = runtime::variant_by_name("acc_simd.async");
    config.nranks = 2;
    config.timesteps = 3;
    config.cpe_groups = 2;
    config.async_dma = async_dma;
    config.tile_policy = policy;
    config.storage = storage;
    if (faults)
      config.faults = fault::FaultPlan::parse(
          "cpe_stall:p=0.3:factor=4,dma_error:p=0.1,offload_fail:p=0.2", 11);
    if (per_offload)
      config.schedule = schedpt::ScheduleSpec::parse("record:file=" + dir + ".sched");
    if (storage == var::StorageMode::kFunctional) {
      config.output_dir = dir;
      config.output_interval = 1;
    }
    apps::burgers::BurgersApp::Config bc;
    bc.tile_shape = {8, 8, 8};
    bc.hotspot_factor = 4.0;
    return runtime::run_simulation(config, apps::burgers::BurgersApp(bc));
  }
};

TEST(SchedulerPlans, CachedPlansMatchPlansBuiltPerOffload) {
  // Every policy, both DMA modes, with and without CPE stalls, DMA errors
  // and offload failures (whose retries re-offload onto the same or a
  // spare group). Functional runs move real data through
  // their tiles and archive their fields; both storage modes apply the
  // planned charges, so timing-only runs must match the functional runs'
  // virtual times and counters too.
  const std::string base = ::testing::TempDir() + "/usw_plans_";
  for (const TilePolicy policy :
       {TilePolicy::kStaticZ, TilePolicy::kDynamic})
    for (const bool async_dma : {false, true})
      for (const bool faults : {false, true}) {
        std::map<std::string, runtime::RunResult> functional;
        for (const var::StorageMode storage :
             {var::StorageMode::kFunctional, var::StorageMode::kTimingOnly}) {
          const PlanRun run{policy, async_dma, faults, storage};
          const std::string where = run.name();
          const std::string dir_cached = base + "cached";
          const std::string dir_fresh = base + "fresh";
          fs::remove_all(dir_cached);
          fs::remove_all(dir_fresh);
          const runtime::RunResult cached = run.execute(false, dir_cached);
          const runtime::RunResult fresh = run.execute(true, dir_fresh);
          EXPECT_EQ(usw::test::total_points(cached.schedule_points), 0u) << where;
          if (faults) {
            EXPECT_GT(cached.merged_counters().fault_injected, 0u) << where;
            EXPECT_GT(cached.merged_counters().fault_retries, 0u) << where;
          }
          ASSERT_EQ(cached.ranks.size(), fresh.ranks.size());
          for (std::size_t r = 0; r < cached.ranks.size(); ++r) {
            EXPECT_EQ(cached.ranks[r].init_wall, fresh.ranks[r].init_wall) << where;
            EXPECT_EQ(cached.ranks[r].step_walls, fresh.ranks[r].step_walls) << where;
            EXPECT_EQ(cached.ranks[r].metrics, fresh.ranks[r].metrics) << where;
            expect_same_counters(cached.ranks[r].counters,
                                 fresh.ranks[r].counters, where);
          }
          if (storage == var::StorageMode::kFunctional) {
            const auto tree_cached = slurp_tree(dir_cached);
            const auto tree_fresh = slurp_tree(dir_fresh);
            ASSERT_FALSE(tree_cached.empty()) << where;
            EXPECT_TRUE(tree_cached == tree_fresh) << where << ": archives differ";
            functional.emplace("run", cached);
          } else {
            // The functional run's end-of-run error reductions add
            // messages, so only its steps and CPE work are comparable.
            const runtime::RunResult& walked = functional.at("run");
            for (std::size_t r = 0; r < cached.ranks.size(); ++r) {
              const std::string vs = where + " vs functional";
              const hw::PerfCounters& a = cached.ranks[r].counters;
              const hw::PerfCounters& b = walked.ranks[r].counters;
              EXPECT_EQ(cached.ranks[r].step_walls, walked.ranks[r].step_walls) << vs;
              EXPECT_EQ(a.counted_flops, b.counted_flops) << vs;  // bitwise
              EXPECT_EQ(a.cells_computed, b.cells_computed) << vs;
              EXPECT_EQ(a.tiles_executed, b.tiles_executed) << vs;
              EXPECT_EQ(a.tile_grabs, b.tile_grabs) << vs;
              EXPECT_EQ(a.dma_bytes_in, b.dma_bytes_in) << vs;
              EXPECT_EQ(a.dma_bytes_out, b.dma_bytes_out) << vs;
              EXPECT_EQ(a.kernel_time, b.kernel_time) << vs;
              EXPECT_EQ(a.fault_injected, b.fault_injected) << vs;
              EXPECT_EQ(a.fault_retries, b.fault_retries) << vs;
            }
          }
          fs::remove_all(dir_cached);
          fs::remove_all(dir_fresh);
          fs::remove(dir_fresh + ".sched");
        }
      }
}

/// One stencil task per patch whose per-tile cost scale (1.0) counts its
/// calls. The offload planner prices every tile through it; a timing-only
/// CPE body never calls it. So the count grows only when a plan is built.
class PlanCountingApp final : public runtime::Application {
 public:
  explicit PlanCountingApp(std::atomic<long>& calls) : calls_(calls) {}
  std::string name() const override { return "plan-count"; }
  double fixed_dt(const grid::Level&) const override { return 1e-3; }
  void on_rank_complete(const task::TaskContext&, comm::Comm&, std::span<const int>,
                        std::map<std::string, double>&) const override {}

  void build_init_graph(task::TaskGraph& graph,
                        const grid::Level&) const override {
    task::Task& init = graph.add(task::Task::make_mpe(
        "init", [](const task::TaskContext&, const grid::Patch&) {
          return TimePs{0};
        }));
    init.add_computes(u());
  }

  void build_step_graph(task::TaskGraph& graph,
                        const grid::Level&) const override {
    kern::KernelVariants kernel =
        apps::burgers::make_burgers_kernel(false, {8, 8, 8});
    kernel.tile_cost_scale = [&calls = calls_](const grid::Box&) {
      calls.fetch_add(1);
      return 1.0;
    };
    graph.add(task::Task::make_stencil("counted", u(), u(), std::move(kernel)));
  }

 private:
  static const var::VarLabel* u() { return var::VarLabel::create("plan_count_u"); }
  std::atomic<long>& calls_;
};

TEST(SchedulerPlans, NoPlanIsBuiltAfterATasksFirstOffload) {
  // Without a schedule controller, offload_stencil builds a task's tiling
  // and plan at its first offload only: a 4-step run prices exactly as
  // many tiles as a 1-step run. With one, every offload plans afresh.
  const auto tiles_priced = [](int steps, bool controller) {
    std::atomic<long> calls{0};
    runtime::RunConfig config;
    config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
    config.variant = runtime::variant_by_name("acc.async");
    config.nranks = 2;
    config.timesteps = steps;
    config.storage = var::StorageMode::kTimingOnly;
    const std::string file = ::testing::TempDir() + "/usw_plan_count.sched";
    if (controller)
      config.schedule = schedpt::ScheduleSpec::parse("record:file=" + file);
    const runtime::RunResult result =
        runtime::run_simulation(config, PlanCountingApp(calls));
    EXPECT_EQ(result.merged_counters().kernels_offloaded, 4u * static_cast<unsigned>(steps));
    fs::remove(file);
    return calls.load();
  };
  const long one_step = tiles_priced(1, false);
  EXPECT_GT(one_step, 0);
  EXPECT_EQ(tiles_priced(4, false), one_step);
  EXPECT_GT(tiles_priced(4, true), tiles_priced(1, true));
}

}  // namespace
}  // namespace usw::sched
