// Tests for the deterministic fault-injection plane (src/fault): spec
// parsing, hash determinism, and the recovery configuration. That a
// recovered run is bit-equal to the fault-free one, for every fault kind
// and for restarts on a step deadline, is a row of test_contracts.cc.

#include <gtest/gtest.h>

#include <string>

#include "fault/fault.h"
#include "runtime/controller.h"
#include "support/error.h"

namespace usw {
namespace {

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
// Configuration validation.

TEST(FaultConfig, DeadlineRequiresCheckpointing) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  config.nranks = 2;
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
