// Exact heap-allocation counts of whole runs. This binary replaces the
// global operator new and delete (aligned and nothrow forms included) with
// versions that count, so these tests pin two properties:
//
//  * a steady timestep allocates nothing: a timing-only Burgers run of 2S
//    steps makes exactly as many operator new calls as one of S steps, for
//    every variant (serial backend, untraced, fault-free, no controller);
//  * a rank holds an LDM model only where CPE bodies run: no run allocates
//    one without a body to stage, a serial run at most one per rank, and a
//    threads run at most one per pool worker.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "apps/burgers/burgers_app.h"
#include "hw/machine_params.h"
#include "runtime/controller.h"
#include "sched/tile_policy.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
/// Aligned allocations of exactly the LDM capacity: an hw::Ldm's storage.
std::atomic<std::uint64_t> g_ldm_news{0};
const std::size_t kLdmBytes =
    usw::hw::MachineParams::sunway_taihulight().ldm_bytes;

void* counted(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  if (n == kLdmBytes) g_ldm_news.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace usw {
namespace {

/// Allocations made by one run_simulation call: operator new calls in all,
/// and LDM models among them.
struct Allocs {
  std::uint64_t news = 0;
  std::uint64_t ldms = 0;
};

Allocs count_run(const runtime::RunConfig& config) {
  const apps::burgers::BurgersApp app;
  const std::uint64_t news = g_news.load();
  const std::uint64_t ldms = g_ldm_news.load();
  {
    const runtime::RunResult result = runtime::run_simulation(config, app);
    (void)result;
  }
  return Allocs{g_news.load() - news, g_ldm_news.load() - ldms};
}

/// A timing-only Burgers run: 16 patches of 16^3 cells on 8 ranks, so
/// every rank has domain boundaries, remote neighbours and two tiles per
/// offload.
runtime::RunConfig timing_config(const std::string& variant, int steps) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({4, 2, 2}, {16, 16, 16});
  config.nranks = 8;
  config.variant = runtime::variant_by_name(variant);
  config.storage = var::StorageMode::kTimingOnly;
  config.timesteps = steps;
  return config;
}

/// S steps against 2S: the steps a 2S-step run adds must allocate nothing.
void expect_steady_steps_allocate_nothing(runtime::RunConfig config) {
  constexpr int kSteps = 4;
  config.timesteps = kSteps;
  (void)count_run(config);  // first-use statics (labels, kernel tables)
  const Allocs shorter = count_run(config);
  config.timesteps = 2 * kSteps;
  const Allocs longer = count_run(config);
  EXPECT_EQ(longer.news, shorter.news)
      << "a steady step allocated " << longer.news - shorter.news
      << " times over " << kSteps << " steps";
  EXPECT_EQ(longer.ldms, 0u);
}

class SteadyStep : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyStep, TwiceTheStepsMakeNoMoreAllocations) {
  expect_steady_steps_allocate_nothing(timing_config(GetParam(), 0));
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
  runtime::RunConfig config = timing_config("acc_simd.async", 0);
  config.cpe_groups = 2;
  config.tile_policy = sched::TilePolicy::kDynamic;
  expect_steady_steps_allocate_nothing(config);
}

// ------------------------------------------------------- LDM ownership ---

TEST(LdmOwnership, TimingOnlyRunsHoldNoLdm) {
  runtime::RunConfig config = timing_config("acc_simd.async", 2);
  EXPECT_EQ(count_run(config).ldms, 0u);
  config.backend = athread::Backend::kThreads;
  config.backend_threads = 2;
  EXPECT_EQ(count_run(config).ldms, 0u);
}

/// A functional Burgers run of 16 ranks, one 8^3 patch each.
runtime::RunConfig functional_config() {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({4, 4, 1}, {8, 8, 8});
  config.nranks = 16;
  config.variant = runtime::variant_by_name("acc_simd.async");
  config.timesteps = 2;
  return config;
}

TEST(LdmOwnership, SerialRunsHoldAtMostOneLdmPerRank) {
  const runtime::RunConfig config = functional_config();
  const Allocs allocs = count_run(config);
  EXPECT_GT(allocs.ldms, 0u);  // the count sees the LDMs bodies use
  EXPECT_LE(allocs.ldms, static_cast<std::uint64_t>(config.nranks));
}

TEST(LdmOwnership, ThreadsRunsHoldAtMostOneLdmPerPoolWorker) {
  runtime::RunConfig config = functional_config();
  config.backend = athread::Backend::kThreads;
  config.backend_threads = 2;
  const Allocs allocs = count_run(config);
  EXPECT_GT(allocs.ldms, 0u);
  EXPECT_LE(allocs.ldms, 2u);
}

}  // namespace
}  // namespace usw
