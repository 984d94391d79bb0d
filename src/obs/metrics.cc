#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/critical_path.h"
#include "obs/json_writer.h"

namespace usw::obs {

const Distribution* MetricsRegistry::distribution(std::string_view name) const {
  const auto it = dists_.find(name);
  return it == dists_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const std::vector<const MetricsRegistry*>& parts) {
  std::map<std::string_view, std::size_t> added;
  for (const MetricsRegistry* part : parts)
    for (const auto& [name, dist] : part->dists_) added[name] += dist.samples.size();
  for (const auto& [name, n] : added) {
    std::vector<double>& samples = slot(dists_, name).samples;
    samples.reserve(samples.size() + n);
  }
  for (const MetricsRegistry* part : parts) merge(*part);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) slot(counters_, name) += value;
  for (const auto& [name, dist] : other.dists_) {
    Distribution& mine = slot(dists_, name);
    mine.stats.merge(dist.stats);
    mine.samples.insert(mine.samples.end(), dist.samples.begin(),
                        dist.samples.end());
  }
}

MetricsReport build_metrics(const RunObservation& run) {
  MetricsReport report;
  report.nranks = run.nranks;
  report.timesteps = run.timesteps;
  const auto nsteps = static_cast<std::size_t>(std::max(0, run.timesteps));

  bool have_spans = false;
  for (const RankObservation& r : run.ranks)
    if (!r.spans().empty()) have_spans = true;

  // One pass over every span: the per-step rollups, each step's spans for
  // the critical path, and the per-task rollups over the timestepping phase
  // (init excluded so the numbers line up with the per-step tables). Spans
  // of a rolled-back step attempt are left out: each step counts its
  // committed attempt once. Row s is absolute step first_step + s, the step
  // its spans carry, and its walls are the ranks' step_walls[s].
  report.steps.resize(nsteps);
  for (std::size_t s = 0; s < nsteps; ++s)
    report.steps[s].step = run.first_step + static_cast<int>(s);
  std::vector<TimePs> rank_walls(nsteps, 0);
  std::vector<StepSpans> step_spans(nsteps);
  std::vector<TimePs> rank_wait(nsteps);
  std::map<std::string, TaskMetrics> tasks;
  std::vector<TaskMetrics*> task_slot;  ///< this rank's task index -> rollup
  // Message flight time of rolled-back attempts: the message bandwidth
  // divides bytes that count every attempt (PerfCounters) by it too.
  TimePs rolled_back_flight = 0;
  for (std::size_t ri = 0; ri < run.ranks.size(); ++ri) {
    const RankObservation& r = run.ranks[ri];
    // Spans of timesteps resolve against the timestep skeleton: a task
    // span's task is its operand b, a send's bytes its message's (operand
    // c), as SpanResolver::ids() gives them.
    const TaskGraphInfo& graph = r.graph();
    const std::span<const Span> spans = r.spans();
    std::fill(rank_wait.begin(), rank_wait.end(), 0);
    task_slot.assign(graph.tasks.size(), nullptr);
    for (std::size_t si = 0; si < spans.size(); ++si) {
      const Span& span = spans[si];
      const SpanKind kind = span.kind();
      if (span.rolled_back) {
        if (kind == SpanKind::kSend) rolled_back_flight += span.duration();
        continue;
      }
      if (span.step < 0) continue;
      if (kind == SpanKind::kTask) {
        const auto ti = static_cast<std::size_t>(span.b);
        if (ti < graph.tasks.size()) {  // not -1, and in the skeleton
          // Group by the graph's task name, aggregating patches.
          TaskMetrics*& t = task_slot[ti];
          if (t == nullptr) {
            t = &tasks[graph.tasks[ti].name];
            t->name = graph.tasks[ti].name;
          }
          t->executions += 1;
          t->total += span.duration();
          t->max = std::max(t->max, span.duration());
        }
      }
      const int row = span.step - run.first_step;
      if (row < 0 || static_cast<std::size_t>(row) >= nsteps) continue;
      const auto s = static_cast<std::size_t>(row);
      step_spans[s].add(ri, si, span);
      StepMetrics& step = report.steps[s];
      switch (kind) {
        case SpanKind::kKernel: step.kernel += span.duration(); break;
        case SpanKind::kWait: rank_wait[s] += span.duration(); break;
        case SpanKind::kSend:
          step.comm += span.duration();
          step.messages += 1;
          if (static_cast<std::size_t>(span.c) < graph.messages.size())
            step.message_bytes += graph.messages[static_cast<std::size_t>(span.c)].bytes;
          break;
        default: break;
      }
    }
    for (std::size_t s = 0; s < nsteps; ++s) {
      const TimePs wall = s < r.step_walls.size() ? r.step_walls[s] : 0;
      StepMetrics& step = report.steps[s];
      step.wall = std::max(step.wall, wall);
      rank_walls[s] += wall;
      step.wait += rank_wait[s];
      step.mpe_busy += std::max<TimePs>(0, wall - rank_wait[s]);
    }
  }
  for (auto& [name, t] : tasks) report.tasks.push_back(std::move(t));

  TimePs all_wait = 0;
  TimePs all_walls = 0;
  TimePs comm_flight = rolled_back_flight;
  const auto slowest = static_cast<std::size_t>(
      std::max_element(report.steps.begin(), report.steps.end(),
                       [](const StepMetrics& a, const StepMetrics& b) {
                         return a.wall < b.wall;
                       }) -
      report.steps.begin());
  {
    // Scoped: the analyzer's storage is freed before the registry merge.
    CriticalPathAnalyzer critical_path(run);
    for (std::size_t s = 0; s < nsteps; ++s) {
      StepMetrics& step = report.steps[s];
      if (have_spans && rank_walls[s] > 0)
        step.overlap_efficiency =
            1.0 - static_cast<double>(step.wait) / static_cast<double>(rank_walls[s]);
      CriticalPathReport cp = critical_path.analyze(step.step, step_spans[s]);
      step.critical_path = cp.total;
      if (s == slowest) report.critical_chain = std::move(cp);
      all_wait += step.wait;
      all_walls += rank_walls[s];
      comm_flight += step.comm;
      report.total_wall += step.wall;
    }
  }

  hw::PerfCounters total;
  std::vector<const MetricsRegistry*> registries;
  registries.reserve(run.ranks.size());
  for (const RankObservation& r : run.ranks) {
    total.merge(r.counters);
    if (r.metrics != nullptr) registries.push_back(r.metrics.get());
  }
  report.kernel_time = total.kernel_time;
  report.mpe_task_time = total.mpe_task_time;
  report.comm_time = total.comm_time;
  report.wait_time = total.wait_time;
  report.counted_flops = total.counted_flops;
  report.registry.merge(registries);
  // The resilience counters of every layer that injects or recovers
  // (scheduler, CPE DMA, messages, restarts): the Resilience table's sums.
  report.fault_injected = total.fault_injected;
  report.fault_retries = total.fault_retries;
  report.fault_degraded = total.fault_degraded;
  report.fault_restarts = total.fault_restarts;
  const std::pair<const char*, std::uint64_t> faults[] = {
      {"fault.injected", total.fault_injected},
      {"fault.retries", total.fault_retries},
      {"fault.degraded", total.fault_degraded},
      {"fault.restarts", total.fault_restarts}};
  for (const auto& [name, value] : faults)
    if (value != 0) report.registry.count(name, static_cast<double>(value));
  if (have_spans && all_walls > 0)
    report.overlap_efficiency =
        1.0 - static_cast<double>(all_wait) / static_cast<double>(all_walls);
  if (report.kernel_time > 0)
    report.dma_bandwidth_gbs =
        static_cast<double>(total.dma_bytes_in + total.dma_bytes_out) /
        ps_to_seconds(report.kernel_time) * 1e-9;
  if (comm_flight > 0)
    report.message_bandwidth_gbs = static_cast<double>(total.bytes_sent) /
                                   ps_to_seconds(comm_flight) * 1e-9;
  return report;
}

namespace {

void write_histogram(JsonWriter& w, const Distribution& d) {
  const auto [p50, p90, p99] = d.percentiles({50.0, 90.0, 99.0});
  w.begin_object();
  w.kv("count", static_cast<std::uint64_t>(d.stats.count()));
  w.kv("sum", d.stats.sum());
  w.kv("mean", d.stats.mean());
  w.kv("min", d.stats.min());
  w.kv("max", d.stats.max());
  w.kv("stddev", d.stats.stddev());
  w.kv("p50", p50);
  w.kv("p90", p90);
  w.kv("p99", p99);
  w.end_object();
}

}  // namespace

void write_metrics_json(std::ostream& os, const MetricsReport& report) {
  JsonWriter w(os, /*indent=*/1);
  w.begin_object();
  w.kv("nranks", report.nranks);
  w.kv("timesteps", report.timesteps);

  w.key("totals").begin_object();
  w.kv("wall_ps", report.total_wall);
  w.kv("kernel_ps", report.kernel_time);
  w.kv("mpe_task_ps", report.mpe_task_time);
  w.kv("comm_ps", report.comm_time);
  w.kv("wait_ps", report.wait_time);
  w.kv("overlap_efficiency", report.overlap_efficiency);
  w.kv("counted_flops", report.counted_flops);
  w.kv("dma_bandwidth_gbs", report.dma_bandwidth_gbs);
  w.kv("message_bandwidth_gbs", report.message_bandwidth_gbs);
  w.end_object();

  w.key("steps").begin_array();
  for (const StepMetrics& s : report.steps) {
    w.begin_object();
    w.kv("step", s.step);
    w.kv("wall_ps", s.wall);
    w.kv("kernel_ps", s.kernel);
    w.kv("comm_ps", s.comm);
    w.kv("wait_ps", s.wait);
    w.kv("mpe_busy_ps", s.mpe_busy);
    w.kv("critical_path_ps", s.critical_path);
    w.kv("overlap_efficiency", s.overlap_efficiency);
    w.kv("messages", s.messages);
    w.kv("message_bytes", s.message_bytes);
    w.end_object();
  }
  w.end_array();

  w.key("tasks").begin_array();
  for (const TaskMetrics& t : report.tasks) {
    w.begin_object();
    w.kv("name", t.name.c_str());
    w.kv("executions", t.executions);
    w.kv("total_ps", t.total);
    w.kv("mean_ps", t.mean());
    w.kv("max_ps", t.max);
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const auto& [name, value] : report.registry.counters())
    w.kv(name, value);
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, dist] : report.registry.distributions()) {
    w.key(name);
    write_histogram(w, dist);
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

}  // namespace usw::obs
