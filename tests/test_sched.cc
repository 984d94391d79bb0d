// Scheduler behavior tests: all three modes produce identical numerics,
// the async mode genuinely overlaps communication and MPE work with CPE
// kernels (verified from traces), timing invariants hold, and a task's tile
// plan is built once. That the cached plan runs exactly like one planned
// per offload, and timing-only like functional storage, are rows of
// test_contracts.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "runtime/application.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "sched/scheduler.h"

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
