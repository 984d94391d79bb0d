// Ablation: tile scheduling policy (static z-partition vs dynamic
// self-scheduling; sched/tile_policy.h).
//
// The paper's port assigns tiles to CPEs by a static z-slab partition,
// which leaves CPEs idle in two situations this bench isolates:
//
//   * granularity: a patch with fewer than 64 z-slabs of tiles cannot
//     occupy all 64 CPEs under the static partition, no matter how many
//     tiles each slab holds;
//   * skew: with >= 64 slabs every CPE gets work, but when per-tile cost
//     varies (burgers --hotspot), the CPEs owning hot tiles finish long
//     after the rest.
//
// The dynamic policy (an atomic-counter self-scheduled queue, modeled
// deterministically) fixes both: any CPE takes the next tile when free.
//
// Emits BENCH_ablation_tile_policy.json for the CI regression gate.

#include <iostream>
#include <map>
#include <string>

#include "apps/burgers/burgers_app.h"
#include "grid/tiling.h"
#include "json_report.h"
#include "obs/metrics.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "support/table.h"

namespace {

using namespace usw;

struct Workload {
  std::string name;
  grid::IntVec patch;
  grid::IntVec tile;
  double hotspot = 1.0;  ///< per-tile cost factor inside the hot sphere
};

struct Measurement {
  TimePs mean_step = 0;
  double idle_frac = 0.0;
  double imbalance = 0.0;  ///< max/mean CPE busy per offload
  bench::CaseResult result;
};

Measurement run_case(const Workload& w, sched::TilePolicy policy) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, w.patch);
  cfg.problem.name = w.name;
  cfg.variant = runtime::variant_by_name("acc.async");
  cfg.nranks = 4;
  cfg.timesteps = 3;
  cfg.storage = var::StorageMode::kTimingOnly;
  cfg.collect_metrics = true;
  cfg.collect_trace = true;
  cfg.tile_policy = policy;

  apps::burgers::BurgersApp::Config app_cfg;
  app_cfg.tile_shape = w.tile;
  app_cfg.hotspot_factor = w.hotspot;
  const apps::burgers::BurgersApp app(app_cfg);
  const runtime::RunResult r = runtime::run_simulation(cfg, app);
  const obs::MetricsReport m = obs::build_metrics(runtime::observe(r));

  Measurement out;
  out.mean_step = r.mean_step_wall();
  if (const obs::Distribution* d =
          m.registry.distribution("offload.cpe_idle_frac"))
    out.idle_frac = d->stats.mean();
  if (const obs::Distribution* d =
          m.registry.distribution("offload.cpe_imbalance"))
    out.imbalance = d->stats.mean();
  out.result.mean_step = out.mean_step;
  out.result.gflops = r.achieved_gflops();
  out.result.counted_flops = r.total_counted_flops();
  out.result.overlap_efficiency = m.overlap_efficiency;
  out.result.cpe_idle_frac = out.idle_frac;
  std::cerr << "  [tile_policy] " << w.name << " "
            << sched::to_string(policy) << ": "
            << format_duration(out.mean_step) << "/step\n";
  return out;
}

}  // namespace

int main() {
  // 32x32x80 patches tile into 10 z-slabs (a granularity-starved offload);
  // 32x32x512 patches tile into exactly 64 slabs, so only the hotspot skew
  // separates the policies there. The 8x8x8 row shows that adding tiles
  // without adding z-slabs does not help the static partition.
  const std::vector<Workload> workloads = {
      {"coarse32x32x80", {32, 32, 80}, {16, 16, 8}, 1.0},
      {"fine32x32x80", {32, 32, 80}, {8, 8, 8}, 1.0},
      {"hotspot32x32x512", {32, 32, 512}, {16, 16, 8}, 8.0},
  };
  const std::vector<sched::TilePolicy> policies = {
      sched::TilePolicy::kStaticZ, sched::TilePolicy::kDynamic};

  bench::JsonReport json("ablation_tile_policy");
  TextTable table("Ablation: tile scheduling policy (burgers, 4 CGs, acc.async)");
  table.set_header({"workload", "tiles", "z-slabs", "policy", "step wall",
                    "CPE idle", "max/mean", "vs static"});
  std::map<std::string, Measurement> by_case;
  for (const Workload& w : workloads) {
    const grid::Tiling tiling(grid::Box{{0, 0, 0}, w.patch}, w.tile);
    TimePs static_wall = 0;
    for (sched::TilePolicy policy : policies) {
      const Measurement m = run_case(w, policy);
      if (policy == sched::TilePolicy::kStaticZ) static_wall = m.mean_step;
      by_case[w.name + "/" + sched::to_string(policy)] = m;
      json.add(bench::CaseKey{w.name, std::string("acc.async+") +
                                           sched::to_string(policy), 4},
               m.result);
      table.add_row(
          {w.name, std::to_string(tiling.num_tiles()),
           std::to_string(tiling.tile_grid().z), sched::to_string(policy),
           format_duration(m.mean_step), TextTable::pct(m.idle_frac),
           TextTable::num(m.imbalance, 2),
           TextTable::num(static_cast<double>(static_wall) /
                              static_cast<double>(m.mean_step), 2) + "x"});
    }
  }
  table.print(std::cout);

  const auto speedup = [&](const std::string& w) {
    return static_cast<double>(by_case.at(w + "/static").mean_step) /
           static_cast<double>(by_case.at(w + "/dynamic").mean_step);
  };
  json.add_scalar("dynamic_speedup_coarse", speedup("coarse32x32x80"));
  json.add_scalar("dynamic_speedup_fine", speedup("fine32x32x80"));
  json.add_scalar("dynamic_speedup_hotspot", speedup("hotspot32x32x512"));
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";

  std::cout << "\nThe static z-partition caps CPE occupancy at the z-slab\n"
               "count (10 of 64 here for the 80-deep patches) and pins hot\n"
               "tiles to whichever CPE owns their slab; the dynamic queue\n"
               "fills all CPEs and absorbs the hotspot, at one simulated\n"
               "atomic grab per tile.\n";
  return 0;
}
