// Host-side microbenchmarks (Google Benchmark): the functional building
// blocks that every simulated run executes for real. These measure *host*
// throughput (how fast the simulator itself runs), complementing the
// virtual-time benches that reproduce the paper's numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <streambuf>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "apps/burgers/kernels.h"
#include "apps/burgers/phi.h"
#include "athread/athread.h"
#include "kern/fastexp.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "sched/tile_exec.h"
#include "sim/coordinator.h"
#include "support/rng.h"
#include "var/ccvariable.h"

namespace {

using namespace usw;

kern::KernelEnv burgers_env() {
  kern::KernelEnv env;
  env.time = 0.05;
  env.dt = 1e-4;
  env.dx = env.dy = env.dz = 1.0 / 64;
  return env;
}

/// One Burgers kernel call per iteration, as a CPE body runs it, on a
/// region away from the origin, reading its ghosted input. Arguments: the
/// region's x and y extent (16: one 16x16x8 LDM tile of Sec VI-A; 64: one
/// 64x64x8 z-slab, a static-z share of a 64^3 patch) and the inverse cell
/// spacing (64: a power of two, so the kernel multiplies by exact
/// reciprocals; 60: it divides). Items are cells.
void run_burgers_kernel(benchmark::State& state, bool simd) {
  const int xy = static_cast<int>(state.range(0));
  const grid::IntVec lo{16, 32, 8};
  const grid::Box region{lo, lo + grid::IntVec{xy, xy, 8}};
  var::CCVariable<double> in(region.grown(1)), out(region);
  SplitMix64 rng(1);
  for (double& x : in.data()) x = rng.next_in(0.0, 1.0);
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const kern::StencilFn& kernel = simd ? kv.simd : kv.scalar;
  kern::KernelEnv env = burgers_env();
  env.dx = env.dy = env.dz = 1.0 / static_cast<double>(state.range(1));
  for (auto _ : state) {
    kernel(env, kern::FieldView::of(in), kern::FieldView::of(out), region);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * region.volume());
}

void BM_BurgersKernelScalar(benchmark::State& state) {
  run_burgers_kernel(state, false);
}
BENCHMARK(BM_BurgersKernelScalar)
    ->ArgsProduct({{16, 64}, {64, 60}})
    ->ArgNames({"xy", "inv_h"});

void BM_BurgersKernelSimd(benchmark::State& state) {
  run_burgers_kernel(state, true);
}
BENCHMARK(BM_BurgersKernelSimd)
    ->ArgsProduct({{16, 64}, {64, 60}})
    ->ArgNames({"xy", "inv_h"});

void BM_PhiFast(benchmark::State& state) {
  SplitMix64 rng(2);
  double x = rng.next_double();
  double acc = 0;
  for (auto _ : state) {
    acc += apps::burgers::phi_fast(x, 0.1);
    x += 1e-6;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhiFast);

void BM_ExpFast(benchmark::State& state) {
  double x = -50.0;
  double acc = 0;
  for (auto _ : state) {
    acc += kern::exp_fast(x);
    x += 1e-5;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpFast);

void BM_ExpIeee(benchmark::State& state) {
  double x = -50.0;
  double acc = 0;
  for (auto _ : state) {
    acc += std::exp(x);
    x += 1e-5;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpIeee);

void BM_PackUnpack(benchmark::State& state) {
  const grid::Box box{{0, 0, 0}, {64, 64, 64}};
  var::CCVariable<double> src(box), dst(box);
  const grid::Box region{{0, 0, 0}, {1, 64, 64}};  // x-face, worst stride
  for (auto _ : state) {
    auto bytes = src.pack(region);
    dst.unpack(region, bytes);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * region.volume() * 8);
}
BENCHMARK(BM_PackUnpack);

void BM_CoordinatorHandoff(benchmark::State& state) {
  // Cost of one serial token handoff at N simulated ranks (the argument):
  // the dominant host-side overhead of the discrete-event simulation at
  // scale. Every rank advances by the same step and gates, so each gate
  // passes the grant to another rank. The clock runs from the first grant
  // (every rank thread registered) to the last gate, so thread start-up
  // and teardown stay out of the timing. Items are handoffs; `per_handoff`
  // is the time one costs.
  using Clock = std::chrono::steady_clock;
  const int nranks = static_cast<int>(state.range(0));
  const int gates = std::max(2, 4096 / nranks);
  for (auto _ : state) {
    Clock::time_point first, last;  // written only by the granted rank
    sim::run_ranks(nranks, [&](sim::Coordinator& c, int r) {
      if (r == 0) first = Clock::now();  // rank 0 is granted first
      for (int i = 0; i < gates; ++i) {
        c.advance(r, 10);
        c.gate(r);
      }
      last = Clock::now();
    });
    state.SetIterationTime(std::chrono::duration<double>(last - first).count());
  }
  const double handoffs = static_cast<double>(nranks) * gates;
  state.SetItemsProcessed(state.iterations() * nranks * gates);
  state.counters["per_handoff"] = benchmark::Counter(
      handoffs, benchmark::Counter::kIsIterationInvariantRate |
                    benchmark::Counter::kInvert);
}
BENCHMARK(BM_CoordinatorHandoff)->Arg(2)->Arg(128)->Arg(1024)->UseManualTime();

/// One offload as Scheduler::offload_stencil runs it for the acc_simd
/// variants, timing-only: charge the plan's CPEs on
/// the MPE, spawn an empty job on them, join. `replan` also builds
/// the plan (tiling, assignment, charges) first, as a task's first offload
/// does; without it the plan is built once outside the loop, as every later
/// offload finds it. The argument is the tile count: 1 for an 8^3 patch,
/// 256 for the Table III 32x32x512 patch (16x16x8 tiles). Items are tiles.
void offload_path(benchmark::State& state, bool replan) {
  const grid::Box patch = state.range(0) == 1
                              ? grid::Box{{0, 0, 0}, {8, 8, 8}}
                              : grid::Box{{0, 0, 0}, {32, 32, 512}};
  const kern::KernelVariants kv = apps::burgers::make_burgers_kernel(false);
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  sched::TileExecArgs args;
  args.kernel = &kv;
  args.env = burgers_env();
  args.vectorize = true;
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank);
    const auto make_plan = [&] {
      return sched::plan_tile_assignment(args, patch, cluster.group_size(),
                                         cluster.n_cpes(), cost);
    };
    sched::TilePlan plan = make_plan();
    std::vector<TimePs> busy;
    hw::PerfCounters counters;
    for (auto _ : state) {
      if (replan) plan = make_plan();
      sched::charge_offload(args, plan, cluster.n_cpes(), cost, busy,
                            counters);
      cluster.set_work(plan.assignment.cpes, busy);
      cluster.spawn(athread::CpeJob{});
      cluster.join();
    }
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_OffloadPath(benchmark::State& state) { offload_path(state, true); }
BENCHMARK(BM_OffloadPath)->Arg(1)->Arg(256)->UseRealTime();

void BM_OffloadPathSteady(benchmark::State& state) {
  offload_path(state, false);
}
BENCHMARK(BM_OffloadPathSteady)->Arg(1)->Arg(256)->UseRealTime();

/// Accepts and drops everything written to it, so the exporters do their
/// full formatting work without touching a file.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// One traced, metrics-collecting run (Burgers, 8x8x4 patches of 8^3 on 128
/// timing-only ranks, 20 steps, its ranks pairing their spans as each step
/// ends) and everything the export stages read, built once for every
/// BM_ObserveExport stage.
struct ObservedRun {
  runtime::RunResult result;
  obs::RunObservation run;
  obs::MetricsReport metrics;

  static const ObservedRun& get() {
    static const ObservedRun instance;
    return instance;
  }

 private:
  ObservedRun() {
    runtime::RunConfig config;
    config.problem = runtime::tiny_problem({8, 8, 4}, {8, 8, 8});
    config.nranks = 128;
    config.variant = runtime::variant_by_name("acc_simd.async");
    config.storage = var::StorageMode::kTimingOnly;
    config.timesteps = 20;
    config.collect_trace = true;
    config.collect_metrics = true;
    const apps::burgers::BurgersApp app;
    result = runtime::run_simulation(config, app);
    run = runtime::observe(result);
    metrics = obs::build_metrics(run);
  }
};

enum class ExportStage { kObserve, kBuildMetrics, kChromeTrace, kMetricsJson };

void BM_ObserveExport(benchmark::State& state, ExportStage stage) {
  // The post-run pipeline of an observed run, one stage per benchmark:
  // sharing every rank's spans with the observation, the per-step/per-task
  // rollups with the critical path, and the two JSON exports into a
  // discarding stream. Items are spans.
  const ObservedRun& in = ObservedRun::get();
  std::size_t spans = 0;
  for (const obs::RankObservation& r : in.run.ranks) spans += r.spans().size();
  DiscardBuf sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    switch (stage) {
      case ExportStage::kObserve:
        benchmark::DoNotOptimize(runtime::observe(in.result));
        break;
      case ExportStage::kBuildMetrics:
        benchmark::DoNotOptimize(obs::build_metrics(in.run));
        break;
      case ExportStage::kChromeTrace: obs::write_chrome_trace(os, in.run); break;
      case ExportStage::kMetricsJson: obs::write_metrics_json(os, in.metrics); break;
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(spans));
}
BENCHMARK_CAPTURE(BM_ObserveExport, observe, ExportStage::kObserve)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObserveExport, build_metrics, ExportStage::kBuildMetrics)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObserveExport, write_chrome_trace, ExportStage::kChromeTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObserveExport, write_metrics_json, ExportStage::kMetricsJson)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
