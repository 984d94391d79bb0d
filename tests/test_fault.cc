// Tests for the deterministic fault-injection plane (src/fault) and the
// recovery machinery it drives: spec parsing, hash determinism, offload
// retry / CPE-group degradation / MPE fallback, message retransmit, DMA
// re-issue, and restart-from-checkpoint on a step deadline.
//
// The central claim under test: whenever recovery succeeds, a faulted run's
// numerics are *bit-equal* to the fault-free run — faults perturb virtual
// time and control flow only, never payloads.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/heat/heat_app.h"
#include "fault/fault.h"
#include "runtime/controller.h"
#include "support/error.h"
#include "support/test_helpers.h"

using usw::test::slurp_tree;

namespace usw {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(FaultPlan, ParsesFullSpec) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "cpe_stall:p=1e-3,msg_delay:p=1e-2:factor=8,offload_fail:step=7", 42);
  EXPECT_TRUE(plan.has(fault::FaultKind::kCpeStall));
  EXPECT_TRUE(plan.has(fault::FaultKind::kMsgDelay));
  EXPECT_TRUE(plan.has(fault::FaultKind::kOffloadFail));
  EXPECT_FALSE(plan.has(fault::FaultKind::kMsgLoss));
  // Every rule in spec order with its effective values: the default factor
  // of 8, and probability 1 for a step-pinned rule without p.
  EXPECT_EQ(plan.describe(),
            "cpe_stall:p=0.001000:factor=8.000000,"
            "msg_delay:p=0.010000:factor=8.000000,"
            "offload_fail:p=1.000000:step=7 (seed 42)");
}

TEST(FaultPlan, EmptySpecIsInactive) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("", 1);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.describe(), "none");
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  using fault::FaultPlan;
  EXPECT_THROW(FaultPlan::parse("gamma_ray:p=0.1", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("cpe_stall:q=1", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("cpe_stall:p=abc", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("cpe_stall:p=", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("cpe_stall:p=1.5", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("cpe_stall:p=-0.1", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("msg_delay:p=0.1:factor=0.5", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("offload_fail:step=-2", 1), ConfigError);
  EXPECT_THROW(FaultPlan::parse("offload_fail:step=1.5", 1), ConfigError);
  // A clause that can never fire (no p, no step) is a spec mistake.
  EXPECT_THROW(FaultPlan::parse("cpe_stall", 1), ConfigError);
  // Duplicate kinds would make the effective probability ambiguous.
  EXPECT_THROW(FaultPlan::parse("cpe_stall:p=0.1,cpe_stall:p=0.2", 1),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Decision determinism.

TEST(FaultPlan, DecisionsAreDeterministicAndSeedSensitive) {
  const std::string spec =
      "cpe_stall:p=0.3:factor=4,offload_fail:p=0.3,dma_error:p=0.3,"
      "msg_delay:p=0.3,msg_loss:p=0.3";
  const fault::FaultPlan a = fault::FaultPlan::parse(spec, 7);
  const fault::FaultPlan b = fault::FaultPlan::parse(spec, 7);
  const fault::FaultPlan c = fault::FaultPlan::parse(spec, 8);
  int differs = 0;
  for (int step = 0; step < 4; ++step) {
    for (int task = 0; task < 8; ++task) {
      const auto sa = a.cpe_stall(0, 0, step, task, 1, 64);
      const auto sb = b.cpe_stall(0, 0, step, task, 1, 64);
      ASSERT_EQ(sa.has_value(), sb.has_value());
      if (sa) {
        EXPECT_EQ(sa->cpe, sb->cpe);
        EXPECT_GE(sa->cpe, 0);
        EXPECT_LT(sa->cpe, 64);
        EXPECT_DOUBLE_EQ(sa->factor, 4.0);
      }
      EXPECT_EQ(a.offload_fails(0, 0, step, task, 1),
                b.offload_fails(0, 0, step, task, 1));
      EXPECT_EQ(a.dma_error(0, 0, step, task, 5),
                b.dma_error(0, 0, step, task, 5));
      if (a.offload_fails(0, 0, step, task, 1) !=
          c.offload_fails(0, 0, step, task, 1))
        ++differs;
    }
  }
  EXPECT_GT(differs, 0) << "seed must matter";
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    EXPECT_EQ(a.msg_lost(seq, 1), b.msg_lost(seq, 1));
    const auto da = a.msg_delay_factor(seq, 1);
    const auto db = b.msg_delay_factor(seq, 1);
    ASSERT_EQ(da.has_value(), db.has_value());
  }
}

TEST(FaultPlan, IncarnationGivesFreshDrawsButStepPinnedAlwaysFires) {
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("offload_fail:p=0.4", 3);
  int differs = 0;
  for (int task = 0; task < 32; ++task)
    if (plan.offload_fails(0, 0, 1, task, 1) !=
        plan.offload_fails(1, 0, 1, task, 1))
      ++differs;
  EXPECT_GT(differs, 0) << "incarnation must refresh probabilistic draws";

  const fault::FaultPlan pinned =
      fault::FaultPlan::parse("offload_fail:step=3", 3);
  for (std::uint64_t inc = 0; inc < 4; ++inc) {
    EXPECT_TRUE(pinned.offload_fails(inc, 0, 3, 0, 1));
    EXPECT_FALSE(pinned.offload_fails(inc, 0, 2, 0, 1));
  }
}

// ---------------------------------------------------------------------------
// End-to-end recovery: faulted runs must be bit-equal to fault-free runs.

runtime::RunConfig base_config() {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  config.variant = runtime::variant_by_name("acc_simd.async");
  config.nranks = 2;
  config.timesteps = 4;
  config.cpe_groups = 2;
  return config;
}

void expect_same_numerics(const runtime::RunResult& a,
                          const runtime::RunResult& b) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r)
    EXPECT_EQ(a.ranks[r].metrics, b.ranks[r].metrics)  // bitwise doubles
        << "rank " << r;
}

/// The offload variants whose schedulers recover failed offloads: the
/// async loop and the synchronous one, with and without SIMD kernels.
constexpr const char* kOffloadVariants[] = {"acc_simd.async", "acc.sync",
                                            "acc_simd.sync"};

TEST(FaultRecovery, OffloadRetryIsBitEqualToFaultFree) {
  for (const char* variant : kOffloadVariants) {
    SCOPED_TRACE(variant);
    runtime::RunConfig config = base_config();
    config.variant = runtime::variant_by_name(variant);
    const runtime::RunResult clean =
        runtime::run_simulation(config, apps::burgers::BurgersApp());
    config.faults = fault::FaultPlan::parse("offload_fail:p=0.3", 11);
    const runtime::RunResult faulted =
        runtime::run_simulation(config, apps::burgers::BurgersApp());
    const hw::PerfCounters sum = faulted.merged_counters();
    EXPECT_GT(sum.fault_injected, 0u);
    EXPECT_GT(sum.fault_retries, 0u);
    expect_same_numerics(clean, faulted);
  }
}

TEST(FaultRecovery, PersistentFailureDegradesToMpeAndStaysCorrect) {
  for (const char* variant : kOffloadVariants) {
    SCOPED_TRACE(variant);
    runtime::RunConfig config = base_config();
    config.variant = runtime::variant_by_name(variant);
    const runtime::RunResult clean =
        runtime::run_simulation(config, apps::heat::HeatApp());
    config.faults = fault::FaultPlan::parse("offload_fail:p=1", 5);
    const runtime::RunResult faulted =
        runtime::run_simulation(config, apps::heat::HeatApp());
    const hw::PerfCounters sum = faulted.merged_counters();
    // Every offload fails: both groups on both ranks degrade (the
    // synchronous loop moves to the spare group once group 0 is degraded),
    // and every stencil ends up executing (correctly) on the MPE.
    EXPECT_EQ(sum.fault_degraded, 4u);
    EXPECT_GT(sum.kernels_on_mpe, clean.merged_counters().kernels_on_mpe);
    expect_same_numerics(clean, faulted);
  }
}

TEST(FaultRecovery, MessageLossAndDelayRetransmitBitEqual) {
  const runtime::RunResult clean =
      runtime::run_simulation(base_config(), apps::burgers::BurgersApp());
  runtime::RunConfig config = base_config();
  config.faults = fault::FaultPlan::parse(
      "msg_loss:p=0.2,msg_delay:p=0.2:factor=10", 13);
  const runtime::RunResult faulted =
      runtime::run_simulation(config, apps::burgers::BurgersApp());
  const hw::PerfCounters sum = faulted.merged_counters();
  EXPECT_GT(sum.fault_injected, 0u);
  EXPECT_GT(sum.fault_retries, 0u);  // retransmits
  // Retransmits re-enter the wire as real traffic.
  EXPECT_GT(sum.messages_sent, clean.merged_counters().messages_sent);
  expect_same_numerics(clean, faulted);
}

TEST(FaultRecovery, DmaErrorsAreReissuedBitEqual) {
  const runtime::RunResult clean =
      runtime::run_simulation(base_config(), apps::burgers::BurgersApp());
  runtime::RunConfig config = base_config();
  config.faults = fault::FaultPlan::parse("dma_error:p=0.1", 17);
  const runtime::RunResult faulted =
      runtime::run_simulation(config, apps::burgers::BurgersApp());
  const hw::PerfCounters sum = faulted.merged_counters();
  EXPECT_GT(sum.fault_injected, 0u);
  EXPECT_GT(sum.fault_retries, 0u);  // each error re-issues its tile get
  expect_same_numerics(clean, faulted);
}

TEST(FaultRecovery, DeadlineRestartReplaysFromCheckpointBitEqual) {
  const std::string dir_clean = ::testing::TempDir() + "/usw_fault_ckpt_clean";
  const std::string dir_faulted = ::testing::TempDir() + "/usw_fault_ckpt_inj";
  fs::remove_all(dir_clean);
  fs::remove_all(dir_faulted);

  runtime::RunConfig config = base_config();
  // Every CPE must carry real work, or the hash-picked stall victim can be
  // an idle CPE and the stall (correctly) costs nothing. The static
  // z-partition leaves CPEs idle when there are fewer z-slabs than CPEs,
  // so use 4^3 tiles on 16^3 patches under the dynamic self-scheduler,
  // which spreads the 64 tiles across all 32 CPEs of the group.
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
  config.tile_policy = sched::TilePolicy::kDynamic;
  apps::burgers::BurgersApp::Config bc;
  bc.tile_shape = {4, 4, 4};
  config.timesteps = 6;
  config.output_dir = dir_clean;
  config.output_interval = 1;
  const runtime::RunResult clean =
      runtime::run_simulation(config, apps::burgers::BurgersApp(bc));
  TimePs max_wall = 0;
  for (int s = 0; s < clean.timesteps; ++s)
    max_wall = std::max(max_wall, clean.step_wall(s));

  // A step-pinned stall blows the deadline at step 3 on every attempt
  // (pinned rules fire in every incarnation), so the controller restarts
  // from the step-2 checkpoint until max_restarts is exhausted, then
  // pushes through the stall. Recovery must not change the numerics.
  config.output_dir = dir_faulted;
  config.faults = fault::FaultPlan::parse("cpe_stall:step=3:factor=5000", 9);
  config.recovery.step_deadline = max_wall + max_wall / 16;
  config.recovery.max_restarts = 2;
  const runtime::RunResult faulted =
      runtime::run_simulation(config, apps::burgers::BurgersApp(bc));

  const hw::PerfCounters sum = faulted.merged_counters();
  EXPECT_EQ(sum.fault_restarts, 2u * 2u);  // max_restarts on each rank
  expect_same_numerics(clean, faulted);

  // The faulted run's final archive is byte-equal to the clean run's:
  // replayed steps overwrite their checkpoints with identical bytes.
  const auto tree_clean = slurp_tree(dir_clean);
  const auto tree_faulted = slurp_tree(dir_faulted);
  ASSERT_FALSE(tree_clean.empty());
  ASSERT_EQ(tree_clean.size(), tree_faulted.size());
  for (const auto& [name, bytes] : tree_clean) {
    auto it = tree_faulted.find(name);
    ASSERT_NE(it, tree_faulted.end()) << name;
    EXPECT_TRUE(bytes == it->second) << "archive file differs: " << name;
  }
  fs::remove_all(dir_clean);
  fs::remove_all(dir_faulted);
}

TEST(FaultRecovery, KillAndRestartArchiveIsByteEqualUnderInjection) {
  // "Kill" a faulted run after 4 of 6 steps, restart from its archive, and
  // finish: the archive must end up byte-equal to the uninterrupted faulted
  // run's. Only offload-side kinds are injected — they key on the absolute
  // timestep, so the continuation sees the same faults the uninterrupted
  // run saw. (Message faults key on network sequence numbers, which start
  // over in a new process — exercised in
  // MessageLossAndDelayRetransmitBitEqual.)
  const std::string spec = "cpe_stall:p=0.3:factor=4,offload_fail:p=0.2,"
                           "dma_error:p=0.1";
  const std::string dir_full = ::testing::TempDir() + "/usw_fault_kill_full";
  const std::string dir_cut = ::testing::TempDir() + "/usw_fault_kill_cut";
  fs::remove_all(dir_full);
  fs::remove_all(dir_cut);

  runtime::RunConfig config = base_config();
  config.faults = fault::FaultPlan::parse(spec, 21);
  config.timesteps = 6;
  config.output_interval = 2;
  config.output_dir = dir_full;
  const runtime::RunResult full =
      runtime::run_simulation(config, apps::burgers::BurgersApp());
  EXPECT_GT(full.merged_counters().fault_injected, 0u);

  config.output_dir = dir_cut;
  config.timesteps = 4;  // the "killed" run
  runtime::run_simulation(config, apps::burgers::BurgersApp());
  config.restart_dir = dir_cut;  // continue into the same archive
  config.timesteps = 2;
  runtime::run_simulation(config, apps::burgers::BurgersApp());

  const auto tree_full = slurp_tree(dir_full);
  const auto tree_cut = slurp_tree(dir_cut);
  ASSERT_FALSE(tree_full.empty());
  ASSERT_EQ(tree_full.size(), tree_cut.size());
  for (const auto& [name, bytes] : tree_full) {
    auto it = tree_cut.find(name);
    ASSERT_NE(it, tree_cut.end()) << name;
    EXPECT_TRUE(bytes == it->second) << "archive file differs: " << name;
  }
  fs::remove_all(dir_full);
  fs::remove_all(dir_cut);
}

// ---------------------------------------------------------------------------
// Configuration validation.

TEST(FaultConfig, DeadlineRequiresCheckpointing) {
  runtime::RunConfig config = base_config();
  config.recovery.step_deadline = kMicrosecond;
  EXPECT_THROW(config.validate(), ConfigError);
  config.output_dir = "/tmp/usw_fault_cfg";
  config.output_interval = 1;
  EXPECT_NO_THROW(config.validate());
  config.recovery.max_restarts = -1;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace usw
