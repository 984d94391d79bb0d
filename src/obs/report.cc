#include "obs/report.h"

#include <ostream>
#include <string>

#include "support/table.h"

namespace usw::obs {
namespace {

std::string fmt_ps(TimePs t) { return format_duration(t); }

void print_steps(std::ostream& os, const MetricsReport& report) {
  TextTable table("Per-timestep breakdown (sums over ranks)");
  table.set_header({"step", "wall", "kernel", "comm", "wait", "mpe busy",
                    "crit path", "overlap", "msgs", "bytes"});
  for (const StepMetrics& s : report.steps) {
    table.add_row({std::to_string(s.step), fmt_ps(s.wall), fmt_ps(s.kernel),
                   fmt_ps(s.comm), fmt_ps(s.wait), fmt_ps(s.mpe_busy),
                   fmt_ps(s.critical_path),
                   TextTable::pct(s.overlap_efficiency),
                   std::to_string(s.messages), format_bytes(s.message_bytes)});
  }
  table.print(os);
}

void print_tasks(std::ostream& os, const MetricsReport& report) {
  if (report.tasks.empty()) return;
  TextTable table("Per-task rollup (all ranks, all steps)");
  table.set_header({"task", "execs", "total", "mean", "max"});
  for (const TaskMetrics& t : report.tasks) {
    table.add_row({t.name, std::to_string(t.executions), fmt_ps(t.total),
                   fmt_ps(t.mean()), fmt_ps(t.max)});
  }
  table.print(os);
}

void print_histograms(std::ostream& os, const MetricsReport& report) {
  if (report.registry.distributions().empty()) return;
  TextTable table("Sampled distributions");
  table.set_header({"metric", "count", "mean", "p50", "p90", "p99", "max"});
  for (const auto& [name, d] : report.registry.distributions()) {
    const auto [p50, p90, p99] = d.percentiles({50.0, 90.0, 99.0});
    table.add_row({name, std::to_string(d.stats.count()),
                   TextTable::num(d.stats.mean()), TextTable::num(p50),
                   TextTable::num(p90), TextTable::num(p99),
                   TextTable::num(d.stats.max())});
  }
  table.print(os);
}

void print_load_balance(std::ostream& os, const MetricsReport& report) {
  // Per-offload CPE imbalance rollup, fed by the scheduler at each offload
  // completion (sched::Scheduler::sample_offload_imbalance). Absent unless
  // kernels were offloaded with metrics collection on.
  const Distribution* idle =
      report.registry.distribution("offload.cpe_idle_frac");
  const Distribution* imb =
      report.registry.distribution("offload.cpe_imbalance");
  if (idle == nullptr || imb == nullptr) return;
  TextTable table("CPE load balance (per offload)");
  table.set_header({"offloads", "idle mean", "idle p90", "idle max",
                    "max/mean busy", "worst"});
  table.add_row({std::to_string(idle->stats.count()),
                 TextTable::pct(idle->stats.mean()),
                 TextTable::pct(idle->pct(90)),
                 TextTable::pct(idle->stats.max()),
                 TextTable::num(imb->stats.mean()),
                 TextTable::num(imb->stats.max())});
  table.print(os);
}

void print_resilience(std::ostream& os, const MetricsReport& report) {
  // Fault-injection and recovery rollup (src/fault). Absent on fault-free
  // runs: every counter is zero, so the table would carry no information.
  if (report.fault_injected == 0 && report.fault_retries == 0 &&
      report.fault_degraded == 0 && report.fault_restarts == 0)
    return;
  TextTable table("Resilience (injected faults and recovery, all ranks)");
  table.set_header({"injected", "retries", "degraded groups", "restarts"});
  table.add_row({std::to_string(report.fault_injected),
                 std::to_string(report.fault_retries),
                 std::to_string(report.fault_degraded),
                 std::to_string(report.fault_restarts)});
  table.print(os);
}

void print_critical_chain(std::ostream& os, const MetricsReport& report) {
  const CriticalPathReport& cp = report.critical_chain;
  if (cp.chain.empty()) return;

  TextTable table("Critical chain of slowest step " +
                  std::to_string(cp.step) + " (chain " + fmt_ps(cp.total) +
                  ", makespan " + fmt_ps(cp.makespan) + ", slack " +
                  fmt_ps(cp.slack()) + ")");
  table.set_header({"#", "rank", "task", "patch", "begin", "duration"});
  int link = 0;
  for (const CriticalPathEntry& e : cp.chain) {
    table.add_row({std::to_string(link++), std::to_string(e.rank), e.name,
                   std::to_string(e.patch), fmt_ps(e.begin),
                   fmt_ps(e.duration)});
  }
  table.print(os);
}

}  // namespace

void print_report(std::ostream& os, const MetricsReport& report) {
  TextTable totals("Run totals (" + std::to_string(report.nranks) +
                   " ranks, " + std::to_string(report.timesteps) + " steps)");
  totals.set_header({"wall", "kernel", "mpe task", "comm", "wait", "overlap",
                     "dma GB/s", "msg GB/s"});
  totals.add_row({fmt_ps(report.total_wall), fmt_ps(report.kernel_time),
                  fmt_ps(report.mpe_task_time), fmt_ps(report.comm_time),
                  fmt_ps(report.wait_time),
                  TextTable::pct(report.overlap_efficiency),
                  TextTable::num(report.dma_bandwidth_gbs),
                  TextTable::num(report.message_bandwidth_gbs)});
  totals.print(os);
  os << '\n';
  print_steps(os, report);
  os << '\n';
  print_tasks(os, report);
  os << '\n';
  print_histograms(os, report);
  os << '\n';
  print_load_balance(os, report);
  os << '\n';
  print_resilience(os, report);
  os << '\n';
  print_critical_chain(os, report);
}

}  // namespace usw::obs
