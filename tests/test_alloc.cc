// Exact heap-allocation counts. This binary replaces the global operator
// new and delete (aligned and nothrow forms included) with versions that
// count (support/counting_new.cc), so these tests pin that a steady
// timestep allocates nothing: a timing-only Burgers run of 2S steps makes
// exactly as many operator new calls as one of S steps, for every variant
// (untraced, fault-free, no controller). A functional offload's job
// allocates nothing either.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "runtime/controller.h"
#include "sched/tile_exec.h"
#include "sched/tile_policy.h"
#include "sim/coordinator.h"
#include "support/counting_new.h"

namespace usw {
namespace {

/// Operator new calls made by one run_simulation call.
std::uint64_t count_run(const runtime::RunConfig& config) {
  const apps::burgers::BurgersApp app;
  const std::uint64_t news = test::operator_news();
  {
    const runtime::RunResult result = runtime::run_simulation(config, app);
    (void)result;
  }
  return test::operator_news() - news;
}

/// A timing-only Burgers run: 16 patches of 16^3 cells on 8 ranks, so
/// every rank has domain boundaries, remote neighbours and two tiles per
/// offload.
runtime::RunConfig timing_config(const std::string& variant) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({4, 2, 2}, {16, 16, 16});
  config.nranks = 8;
  config.variant = runtime::variant_by_name(variant);
  config.storage = var::StorageMode::kTimingOnly;
  return config;
}

/// S steps against 2S: the steps a 2S-step run adds must allocate nothing.
void expect_steady_steps_allocate_nothing(runtime::RunConfig config) {
  constexpr int kSteps = 4;
  config.timesteps = kSteps;
  (void)count_run(config);  // first-use statics (labels, kernel tables)
  const std::uint64_t shorter = count_run(config);
  config.timesteps = 2 * kSteps;
  const std::uint64_t longer = count_run(config);
  EXPECT_EQ(longer, shorter) << "a steady step allocated " << longer - shorter
                             << " times over " << kSteps << " steps";
}

class SteadyStep : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyStep, TwiceTheStepsMakeNoMoreAllocations) {
  expect_steady_steps_allocate_nothing(timing_config(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SteadyStep,
    ::testing::Values("host.sync", "acc.sync", "acc_simd.sync", "acc.async",
                      "acc_simd.async"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      std::string name = param.param;
      for (char& c : name)
        if (c == '.') c = '_';
      return name;
    });

TEST(SteadyStepOptions, CpeGroupsWithDynamicTilesMakeNoMoreAllocations) {
  runtime::RunConfig config = timing_config("acc_simd.async");
  config.cpe_groups = 2;
  config.tile_policy = sched::TilePolicy::kDynamic;
  expect_steady_steps_allocate_nothing(config);
}

TEST(FunctionalOffload, JobAllocatesNothingAfterTheFirstSpawn) {
  // One functional offload of a 64^3 patch as Scheduler::offload_stencil
  // runs it, with a kernel that allocates nothing: charge, name the work,
  // spawn make_tile_job's job, join. The job refers to the offload's
  // arguments and plan, a capture that fits std::function's local buffer,
  // and its bodies run inside the spawn, so nothing is allocated for it.
  const grid::Box patch{{0, 0, 0}, {64, 64, 64}};
  var::CCVariable<double> in(patch.grown(1)), out(patch);
  kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  int calls = 0;
  kv.scalar = [&calls](const kern::KernelEnv&, const kern::FieldView&,
                       const kern::FieldView&, const grid::Box&) { ++calls; };
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  std::uint64_t news = 0;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank);
    sched::TileExecArgs args;
    args.kernel = &kv;
    args.in = kern::FieldView::of(in);
    args.out = kern::FieldView::of(out);
    const sched::TilePlan plan = sched::plan_tile_assignment(
        args, patch, cluster.group_size(), cluster.n_cpes(), cost);
    std::vector<TimePs> busy;
    hw::PerfCounters counters;
    const auto offload = [&] {
      sched::charge_offload(args, plan, cluster.n_cpes(), cost, busy, counters);
      cluster.set_work(plan.assignment.cpes, busy);
      cluster.spawn(sched::make_tile_job(args, plan));
      cluster.join();
    };
    offload();  // the cluster's first spawn sizes `busy`
    const std::uint64_t before = test::operator_news();
    offload();
    news = test::operator_news() - before;
  });
  EXPECT_EQ(calls, 16) << "8 z-slab shares per offload, one call each";
  EXPECT_EQ(news, 0u) << "a steady functional offload allocated";
}

}  // namespace
}  // namespace usw
