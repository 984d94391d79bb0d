// usw_e2e: runs one end-to-end benchmark workload through the public API
// (runtime::run_simulation) and prints one JSON object on stdout.
//
//   usw_e2e --workload=halo-1024|stencil-8p|paper-128|observed-512 [--steps=N]
//   usw_e2e --calibrate
//
// The workload sets only the problem, the CG count, the variant, the storage
// mode, the step count and (observed-512) the observation switches; every
// other RunConfig field keeps its default, so this measures what a default
// `uswsim` run does. Host times come from RankResult::host_step_ms and from
// steady_clock around the call; everything virtual is exact and is compared
// across repeats by run.py. Built twice: usw_e2e_traced links probes.cc and
// appends the per-layer probe report.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <iostream>
#include <random>
#include <streambuf>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "obs/chrome_trace.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "support/build_info.h"
#include "support/error.h"
#include "support/options.h"

#ifdef USW_E2E_TRACED
#include "probes.h"
#endif

namespace {

using namespace usw;

struct Workload {
  const char* name;
  const char* problem;  ///< Table III name, or "" for a custom layout
  grid::IntVec layout;
  grid::IntVec patch;
  int nranks;
  var::StorageMode storage;
  int steps;
  bool observe;  ///< collect trace + metrics and export them after the run
};

// Why each workload exists is recorded in README.md.
constexpr var::StorageMode kTiming = var::StorageMode::kTimingOnly;
constexpr var::StorageMode kFunctional = var::StorageMode::kFunctional;
const Workload kWorkloads[] = {
    {"halo-1024", "", {16, 16, 8}, {8, 8, 8}, 1024, kTiming, 20, false},
    {"stencil-8p", "", {2, 2, 2}, {64, 64, 64}, 4, kFunctional, 20, false},
    {"paper-128", "32x32x512", {}, {}, 128, kTiming, 100, false},
    {"observed-512", "", {16, 16, 8}, {8, 8, 8}, 512, kTiming, 20, true},
};

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw ConfigError("unknown --workload '" + name + "'");
}

runtime::RunConfig config_of(const Workload& w, int steps) {
  runtime::RunConfig config;
  config.problem = w.problem[0] != '\0'
                       ? runtime::problem_by_name(w.problem)
                       : runtime::tiny_problem(w.layout, w.patch);
  config.nranks = w.nranks;
  config.variant = runtime::variant_by_name("acc_simd.async");
  config.storage = w.storage;
  config.timesteps = steps;
  config.collect_trace = w.observe;
  config.collect_metrics = w.observe;
  return config;
}

/// Accepts and drops everything written to it, so the exporters do their
/// full formatting work without touching a file.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// Per-step host wall samples: for each step, the median over ranks.
std::vector<double> step_samples(const runtime::RunResult& result) {
  std::vector<double> out;
  std::vector<double> ranks;
  for (int s = 0; s < result.timesteps; ++s) {
    ranks.clear();
    for (const runtime::RankResult& r : result.ranks)
      ranks.push_back(r.host_step_ms.at(static_cast<std::size_t>(s)));
    std::sort(ranks.begin(), ranks.end());
    const std::size_t mid = ranks.size() / 2;
    out.push_back(ranks.size() % 2 == 1 ? ranks[mid]
                                        : (ranks[mid - 1] + ranks[mid]) / 2);
  }
  return out;
}

/// run.py compares counted flops for equality; an integral count is written
/// as an integer so no digit is lost to the writer's %.12g.
void flops_kv(obs::JsonWriter& w, double flops) {
  if (flops == std::floor(flops) && std::fabs(flops) < 9e15)
    w.kv("counted_flops", static_cast<std::int64_t>(flops));
  else
    w.kv("counted_flops", flops);
}

int run(const Options& opts) {
  const Workload& wl = workload_by_name(opts.get("workload", ""));
  const std::int64_t steps = opts.get_int("steps", wl.steps);
  if (steps < 1) throw ConfigError("--steps must be >= 1");
  const runtime::RunConfig config = config_of(wl, static_cast<int>(steps));
  const apps::burgers::BurgersApp app;

  const double cpu0 = process_cpu_ms();
  const auto t0 = std::chrono::steady_clock::now();
  const runtime::RunResult result = runtime::run_simulation(config, app);

  double report_ms = 0.0;
  double critical_path_ps = 0.0;
  double overlap_efficiency = 0.0;
  if (wl.observe) {
    const auto r0 = std::chrono::steady_clock::now();
    const obs::RunObservation observation = runtime::observe(result);
    const obs::MetricsReport metrics = obs::build_metrics(observation);
    DiscardBuf sink;
    std::ostream os(&sink);
    obs::write_metrics_json(os, metrics);
    obs::write_chrome_trace(os, observation);
    report_ms = seconds_since(r0) * 1e3;
    for (const obs::StepMetrics& s : metrics.steps)
      critical_path_ps += static_cast<double>(s.critical_path);
    critical_path_ps /= static_cast<double>(std::max<std::size_t>(1, metrics.steps.size()));
    overlap_efficiency = metrics.overlap_efficiency;
  }
  const double run_s = seconds_since(t0);
  const double cpu_ms = process_cpu_ms() - cpu0;

  const hw::PerfCounters sum = result.merged_counters();
  const double nr = static_cast<double>(result.nranks);
  const BuildInfo& build = build_info();

  obs::JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("workload", wl.name);
  w.kv("steps", result.timesteps);
  w.kv("git_sha", build.git_sha);
  w.kv("compiler", build.compiler);
  w.kv("build_type", build.build_type);
  w.key("step_ms");
  w.begin_array();
  for (const double ms : step_samples(result)) w.value(ms);
  w.end_array();
  w.kv("run_s", run_s);
  w.kv("process_cpu_ms", cpu_ms);
  w.kv("report_ms", report_ms);
  w.kv("kernels", sum.kernels_offloaded + sum.kernels_on_mpe);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  w.kv("maxrss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  const auto metric = result.ranks[0].metrics.find("linf_error");
  if (metric != result.ranks[0].metrics.end())
    w.kv("linf_error", metric->second);
  w.key("exact");
  w.begin_object();
  w.kv("virtual_step_ps", static_cast<std::int64_t>(result.mean_step_wall()));
  flops_kv(w, result.total_counted_flops());
  w.kv("comm.msgs", sum.messages_sent);
  w.kv("comm.bytes", sum.bytes_sent);
  w.kv("comm.mpi_posts", sum.mpi_posts);
  w.kv("athread.offloads", sum.kernels_offloaded);
  w.kv("athread.cells", sum.cells_computed);
  w.kv("dma.bytes", sum.dma_bytes_in + sum.dma_bytes_out);
  w.kv("var.pack_bytes", sum.pack_bytes);
  w.kv("vt.kernel_ps", static_cast<double>(sum.kernel_time) / nr);
  w.kv("vt.mpe_task_ps", static_cast<double>(sum.mpe_task_time) / nr);
  w.kv("vt.comm_ps", static_cast<double>(sum.comm_time) / nr);
  w.kv("vt.wait_ps", static_cast<double>(sum.wait_time) / nr);
  if (wl.observe) {
    w.kv("vt.critical_path_ps", critical_path_ps);
    w.kv("vt.overlap_efficiency", overlap_efficiency);
  }
  w.end_object();
#ifdef USW_E2E_TRACED
  w.key("probes");
  e2e::write_probe_report(w);
#endif
  w.end_object();
  std::cout << std::endl;
  return 0;
}

/// A fixed amount of host work that does not depend on src/: a
/// cache-line-strided sweep over 64 MiB and a sort of 256Ki pseudo-random
/// integers. run.py times it in its own process next to every workload run
/// (its buffers must not count in a workload's peak RSS) and divides host
/// times by it: on a shared machine whose speed drifts by tens of percent
/// over minutes, mostly through memory-system contention, the ratio is far
/// steadier than the raw time.
int calibrate() {
  constexpr int kSweeps = 20;
  std::vector<std::uint64_t> buf(std::size_t{8} << 20, 1);  // 64 MiB, touched
  std::vector<std::uint32_t> keys(std::size_t{1} << 18);
  std::mt19937 rng(12345);
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(rng());

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  for (int r = 0; r < kSweeps; ++r)
    for (std::size_t i = 0; i < buf.size(); i += 8) sum += buf[i];
  const double mem_ms = seconds_since(t0) * 1e3;
  const auto t1 = std::chrono::steady_clock::now();
  std::sort(keys.begin(), keys.end());
  const double sort_ms = seconds_since(t1) * 1e3;

  obs::JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("calib_ms", mem_ms + sort_ms);
  w.kv("mem_ms", mem_ms);
  w.kv("sort_ms", sort_ms);
  w.kv("sink", sum + keys[keys.size() / 2]);  // keeps both loops alive
  w.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    return opts.get_bool("calibrate", false) ? calibrate() : run(opts);
  } catch (const std::exception& e) {
    std::cerr << "usw_e2e: " << e.what() << "\n";
    return 1;
  }
}
