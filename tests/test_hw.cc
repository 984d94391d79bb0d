// Tests for the SW26010 hardware model: parameter validation, cost-model
// arithmetic and monotonicity, the LDM capacity rule, and performance
// counters.

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <string>
#include <type_traits>

#include "hw/cost_model.h"
#include "hw/ldm.h"
#include "hw/machine_params.h"
#include "hw/perf_counters.h"

namespace usw::hw {
namespace {

MachineParams sunway() { return MachineParams::sunway_taihulight(); }

TEST(MachineParams, DefaultsValidate) { EXPECT_NO_THROW(sunway().validate()); }

TEST(MachineParams, PeakMatchesPaper) {
  const MachineParams m = sunway();
  EXPECT_NEAR(m.cg_peak_gflops(), 765.6, 0.1);  // 23.2 + 742.4 (Sec IV-A)
  EXPECT_EQ(m.cpes_per_cg, 64);
  EXPECT_EQ(m.ldm_bytes, 64u * 1024u);
}

TEST(MachineParams, RejectsNonsense) {
  auto bad = sunway();
  bad.cpes_per_cg = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = sunway();
  bad.dma_efficiency = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = sunway();
  bad.cpe_exp_ieee_multiplier = 0.5;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = sunway();
  bad.net_bw_bytes_per_s = -1;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(KernelCost, CountedFlopsConvention) {
  KernelCost c;
  c.flops_per_cell = 83;
  c.exps_per_cell = 6;
  c.divs_per_cell = 9;
  // 83 + 6*36 + 9 = 308: close to the paper's ~311 per interior cell.
  EXPECT_DOUBLE_EQ(c.counted_flops_per_cell(), 308.0);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModel cm{sunway()};
  KernelCost kc = [] {
    KernelCost c;
    c.flops_per_cell = 83;
    c.exps_per_cell = 6;
    c.divs_per_cell = 9;
    c.bytes_read_per_cell = 8;
    c.bytes_written_per_cell = 8;
    return c;
  }();
};

TEST_F(CostModelTest, CpeComputeScalesLinearly) {
  const TimePs one = cm.cpe_compute(1000, kc, false);
  const TimePs ten = cm.cpe_compute(10000, kc, false);
  EXPECT_NEAR(static_cast<double>(ten), 10.0 * static_cast<double>(one),
              static_cast<double>(one) * 0.01);
}

TEST_F(CostModelTest, SimdIsFasterButNotFourTimes) {
  const TimePs scalar = cm.cpe_compute(100000, kc, false);
  const TimePs simd = cm.cpe_compute(100000, kc, true);
  EXPECT_LT(simd, scalar);
  const double boost = static_cast<double>(scalar) / static_cast<double>(simd);
  // The paper's kernel-level SIMD boost envelope (Sec VII-D): 1.3x - 2.2x
  // end to end, so the raw kernel boost must sit just above it.
  EXPECT_GT(boost, 1.5);
  EXPECT_LT(boost, 3.0);
}

TEST_F(CostModelTest, IeeeExpIsSlower) {
  EXPECT_GT(cm.cpe_compute(1000, kc, false, true),
            cm.cpe_compute(1000, kc, false, false));
}

TEST_F(CostModelTest, ExpDominatesKernelCost) {
  // The paper: 215 of ~311 flops come from exponentials, and the software
  // exp dominates the cycle count; removing it must cut cost by > 2x.
  KernelCost no_exp = kc;
  no_exp.exps_per_cell = 0;
  EXPECT_GT(cm.cpe_compute(1000, kc, false),
            2 * cm.cpe_compute(1000, no_exp, false));
}

TEST_F(CostModelTest, DmaHasStartupAndBandwidth) {
  const TimePs small = cm.cpe_dma(64, 64);
  const TimePs big = cm.cpe_dma(64 * 1024, 64);
  EXPECT_GE(small, sunway().dma_startup);
  EXPECT_GT(big, small);
  // More contending CPEs -> less bandwidth each.
  EXPECT_GT(cm.cpe_dma(64 * 1024, 64), cm.cpe_dma(64 * 1024, 1));
}

TEST_F(CostModelTest, DmaRejectsBadCpeCount) {
  EXPECT_DEATH(cm.cpe_dma(1024, 0), "active_cpes");
  EXPECT_DEATH(cm.cpe_dma(1024, 65), "active_cpes");
}

TEST_F(CostModelTest, MpeSlowerThanCluster) {
  // One MPE against 64 CPEs: the cluster wins on any real cell count even
  // though a single CPE is slower than the MPE.
  const std::uint64_t cells = 1u << 20;
  const TimePs mpe = cm.mpe_compute(cells, kc);
  const TimePs cpe_one = cm.cpe_compute(cells, kc, false);
  const TimePs cluster = cpe_one / 64;
  EXPECT_GT(mpe, cluster);
  EXPECT_LT(mpe, cpe_one);
}

TEST_F(CostModelTest, MessageTransferComponents) {
  const TimePs zero = cm.message_transfer(0);
  EXPECT_EQ(zero, sunway().net_latency + sunway().mpi_sw_latency);
  // 2 MB at 2 GB/s = 1 ms of wire time on top.
  const TimePs big = cm.message_transfer(2 * 1024 * 1024);
  EXPECT_NEAR(static_cast<double>(big - zero), 1.048e9, 5e7);
}

TEST_F(CostModelTest, PackProportionalToBytes) {
  EXPECT_EQ(cm.mpe_pack(0), 0);
  const TimePs a = cm.mpe_pack(1000);
  const TimePs b = cm.mpe_pack(2000);
  EXPECT_NEAR(static_cast<double>(b), 2.0 * static_cast<double>(a),
              static_cast<double>(a) * 0.01);
}

// The LDM model is its capacity rule only: CPE bodies compute in place, so
// no code holds LDM storage.
static_assert(std::is_empty_v<Ldm>);

/// What Ldm::check_fits throws for `bytes` on `capacity`; "" if they fit.
std::string ldm_overflow(std::size_t capacity,
                         std::initializer_list<std::size_t> bytes) {
  try {
    Ldm::check_fits(capacity, bytes);
  } catch (const ResourceError& e) {
    return e.what();
  }
  return "";
}

TEST(Ldm, AllocatesWithinCapacity) {
  EXPECT_EQ(ldm_overflow(64 * 1024, {8000}), "");
  EXPECT_EQ(ldm_overflow(64 * 1024, {8000, 8000, 8000}), "");
}

TEST(Ldm, OverflowThrowsLikeHardware) {
  EXPECT_EQ(ldm_overflow(64 * 1024, {72000}),  // 72 KB > 64 KB
            "resource error: LDM overflow: request of 72000 B with 65536 B "
            "free of 65536 B");
  // The message counts what the earlier blocks left free.
  EXPECT_EQ(ldm_overflow(64 * 1024, {40000, 30000}),
            "resource error: LDM overflow: request of 30000 B with 25536 B "
            "free of 65536 B");
}

TEST(Ldm, AlignsTo32Bytes) {
  // An 8-byte block, then a 32-byte one: the second is placed at offset 32,
  // not 8, so it ends at exactly 64 (40 unaligned).
  EXPECT_EQ(ldm_overflow(64, {8, 32}), "");
  EXPECT_EQ(ldm_overflow(63, {8, 32}),
            "resource error: LDM overflow: request of 32 B with 55 B free of "
            "63 B");
}

TEST(Ldm, ExactFit) {
  EXPECT_EQ(ldm_overflow(64 * 1024, {64 * 1024}), "");  // exactly 64 KB
  EXPECT_EQ(ldm_overflow(64 * 1024, {32 * 1024, 32 * 1024}), "");
  EXPECT_EQ(ldm_overflow(64 * 1024, {32 * 1024, 32 * 1024, 1}),
            "resource error: LDM overflow: request of 1 B with 0 B free of "
            "65536 B");
}

TEST(PerfCounters, KernelCellCounting) {
  PerfCounters pc;
  KernelCost kc;
  kc.flops_per_cell = 83;
  kc.exps_per_cell = 6;
  kc.divs_per_cell = 9;
  pc.count_kernel_cells(1000, kc);
  EXPECT_DOUBLE_EQ(pc.counted_flops, 308000.0);
  EXPECT_EQ(pc.cells_computed, 1000u);
}

TEST(PerfCounters, MergeSumsEverything) {
  PerfCounters a, b;
  a.counted_flops = 10;
  a.messages_sent = 2;
  a.kernel_time = 100;
  b.counted_flops = 5;
  b.messages_sent = 3;
  b.kernel_time = 50;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counted_flops, 15.0);
  EXPECT_EQ(a.messages_sent, 5u);
  EXPECT_EQ(a.kernel_time, 150);
}

TEST(PerfCounters, SummaryMentionsKeyFields) {
  PerfCounters pc;
  pc.counted_flops = 1;
  const std::string s = pc.summary();
  EXPECT_NE(s.find("flops="), std::string::npos);
  EXPECT_NE(s.find("kernel="), std::string::npos);
}

}  // namespace
}  // namespace usw::hw
