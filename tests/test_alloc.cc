// Exact heap-allocation counts of whole runs. This binary replaces the
// global operator new and delete (aligned and nothrow forms included) with
// versions that count (support/counting_new.cc), so these tests pin that a
// steady timestep allocates nothing: a timing-only Burgers run of 2S steps
// makes exactly as many operator new calls as one of S steps, for every
// variant (serial backend, untraced, fault-free, no controller).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/burgers/burgers_app.h"
#include "runtime/controller.h"
#include "sched/tile_policy.h"
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

}  // namespace
}  // namespace usw
