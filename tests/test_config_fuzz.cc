// Configuration-space fuzz: across random combinations of every runtime
// knob — variant, rank count, partition policy, CPE groups, DMA options,
// small-kernel threshold — the *functional* result of a simulation must be
// bit-for-bit identical. Scheduling and
// hardware options may only change virtual time, never physics.

#include <gtest/gtest.h>

#include "apps/burgers/burgers_app.h"
#include "runtime/controller.h"
#include "support/rng.h"

namespace usw {
namespace {

class ConfigFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzz, EveryConfigurationComputesTheSameSolution) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 41);

  // Reference configuration: simplest possible.
  apps::burgers::BurgersApp::Config app_cfg;
  app_cfg.tile_shape = {8, 8, 4};  // fits the LDM twice (double buffering)
  apps::burgers::BurgersApp app(app_cfg);
  runtime::RunConfig ref;
  ref.problem = runtime::tiny_problem({2, 2, 2}, {8, 8, 16});
  ref.variant = runtime::variant_by_name("host.sync");
  ref.nranks = 1;
  ref.timesteps = 3;
  ref.storage = var::StorageMode::kFunctional;
  const auto reference = runtime::run_simulation(ref, app);
  const double ref_linf = reference.ranks[0].metrics.at("linf_error");
  const double ref_umax = reference.ranks[0].metrics.at("u_max");

  const auto variants = runtime::all_variants();
  for (int trial = 0; trial < 8; ++trial) {
    runtime::RunConfig cfg = ref;
    cfg.variant = variants[rng.next_u64() % variants.size()];
    const int rank_choices[] = {1, 2, 4, 8};
    cfg.nranks = rank_choices[rng.next_u64() % 4];
    cfg.partition = static_cast<grid::PartitionPolicy>(rng.next_u64() % 3);
    const int group_choices[] = {1, 2, 4};
    cfg.cpe_groups = static_cast<int>(group_choices[rng.next_u64() % 3]);
    cfg.async_dma = rng.next_u64() % 2 == 0;
    cfg.packed_tiles = rng.next_u64() % 2 == 0;
    const std::uint64_t threshold_choices[] = {0, 600, 1u << 20};
    cfg.mpe_kernel_threshold_cells = threshold_choices[rng.next_u64() % 3];

    const auto result = runtime::run_simulation(cfg, app);
    EXPECT_EQ(result.ranks[0].metrics.at("linf_error"), ref_linf)
        << "variant=" << cfg.variant.name << " ranks=" << cfg.nranks
        << " partition=" << static_cast<int>(cfg.partition)
        << " groups=" << cfg.cpe_groups << " async_dma=" << cfg.async_dma
        << " packed=" << cfg.packed_tiles
        << " threshold=" << cfg.mpe_kernel_threshold_cells;
    EXPECT_EQ(result.ranks[0].metrics.at("u_max"), ref_umax);

    // And the timing, whatever it is, must be reproducible.
    const auto again = runtime::run_simulation(cfg, app);
    for (int s = 0; s < cfg.timesteps; ++s)
      EXPECT_EQ(result.step_wall(s), again.step_wall(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace usw
