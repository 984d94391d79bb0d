#include "sweep.h"

#include <chrono>
#include <cstdio>

#include "apps/burgers/burgers_app.h"
#include "obs/metrics.h"
#include "runtime/observe.h"
#include "support/error.h"

namespace usw::bench {

const CaseResult& Sweep::run(const runtime::ProblemSpec& problem,
                             const runtime::Variant& variant, int ranks) {
  const CaseKey key{problem.name, variant.name, ranks};
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  runtime::RunConfig config;
  config.problem = problem;
  config.variant = variant;
  config.nranks = ranks;
  config.timesteps = timesteps_;
  config.storage = var::StorageMode::kTimingOnly;
  config.collect_trace = observe_;
  config.collect_metrics = observe_;

  apps::burgers::BurgersApp app;
  const auto host_start = std::chrono::steady_clock::now();
  const runtime::RunResult r = runtime::run_simulation(config, app);
  const double host_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - host_start)
                             .count();

  CaseResult res;
  res.host_ms = host_ms;
  res.mean_step = r.mean_step_wall();
  res.gflops = r.achieved_gflops();
  res.counted_flops = r.total_counted_flops();
  {
    const hw::PerfCounters c = r.merged_counters();
    res.msgs_total = static_cast<double>(c.messages_sent);
    res.mpi_post_count = static_cast<double>(c.mpi_posts);
  }
  if (observe_) {
    const obs::MetricsReport m = obs::build_metrics(runtime::observe(r));
    res.overlap_efficiency = m.overlap_efficiency;
    TimePs cp = 0;
    for (const obs::StepMetrics& s : m.steps) {
      res.wait_ps += s.wait;
      cp += s.critical_path;
    }
    if (!m.steps.empty()) res.critical_path_ps = cp / static_cast<TimePs>(m.steps.size());
    if (const obs::Distribution* d =
            m.registry.distribution("offload.cpe_idle_frac"))
      res.cpe_idle_frac = d->stats.mean();
  }
  std::fprintf(stderr, "  [sweep] %s %s %3d CGs: %s/step\n",
               problem.name.c_str(), variant.name.c_str(), ranks,
               format_duration(res.mean_step).c_str());
  return cache_.emplace(key, res).first->second;
}

std::vector<int> Sweep::cg_counts(const runtime::ProblemSpec& problem) {
  std::vector<int> out;
  if ((problem.min_cgs & (problem.min_cgs - 1)) == 0) {
    for (int n = problem.min_cgs; n <= 128; n *= 2) out.push_back(n);
  } else {
    out.push_back(problem.min_cgs);
    int n = 1;
    while (n <= problem.min_cgs) n *= 2;
    for (; n <= 128; n *= 2) out.push_back(n);
  }
  return out;
}

double scaling_efficiency(TimePs t0, int n0, TimePs t1, int n1) {
  USW_ASSERT(t1 > 0 && n1 > 0);
  return static_cast<double>(t0) * n0 / (static_cast<double>(t1) * n1);
}

}  // namespace usw::bench
