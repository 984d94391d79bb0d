// Reproduces the paper's evaluation (Sec VII) from one sweep of its grid:
// every Table III problem, from its smallest CG count to 128 CGs, for all
// five Table IV variants, observed, 10 timesteps each. Each cell is
// simulated once; Table I, Fig 5, Table V, Tables VI/VII, Figs 6-8 and
// Figs 9/10 are printed as views of that one result, and every cell is
// written to BENCH_paper.json together with the Tables VI/VII averages and
// bests.

#include <algorithm>
#include <iostream>

#include "apps/burgers/kernels.h"
#include "hw/machine_params.h"
#include "json_report.h"
#include "runtime/problem.h"
#include "runtime/variant.h"
#include "support/table.h"
#include "sweep.h"

namespace {

using namespace usw;

const std::vector<std::string> kCpeVariants = {"acc.sync", "acc.async",
                                               "acc_simd.sync", "acc_simd.async"};

const bench::CaseResult& cell(bench::Sweep& sweep,
                              const runtime::ProblemSpec& problem,
                              const std::string& variant, int cgs) {
  return sweep.run(problem, runtime::variant_by_name(variant), cgs);
}

// Table I: counted flops per cell of one timestep of each problem. The
// paper's "Total Cells" column equals (nx+2)(ny+2)(nz+2): the grid plus its
// boundary-ghost layer (130*130*1026 = 17,339,400 for 128x128x1024), which
// is why FLOPs/cell rises from 299 to 311 with problem size: the kernel's
// per-interior-cell count is nearly constant (~311, ~215 of it from the 6
// exponentials), and the ghost share of the denominator shrinks.
void table1(bench::Sweep& sweep) {
  TextTable table("Table I: FLOP per cell for the model problem (1 timestep)");
  table.set_header({"Problem Size", "Total Cells", "Total FLOPs", "FLOPs per Cell",
                    "paper FLOPs/Cell"});
  const std::vector<int> paper = {299, 302, 306, 308, 309, 310, 311};
  std::size_t row = 0;
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    const double flops =
        cell(sweep, problem, "acc_simd.async", problem.min_cgs).counted_flops /
        sweep.timesteps();
    const grid::IntVec g = problem.grid_size();
    const double total_cells = static_cast<double>(g.x + 2) * (g.y + 2) * (g.z + 2);
    table.add_row({problem.name, TextTable::num(total_cells, 0),
                   TextTable::num(flops, 0), TextTable::num(flops / total_cells, 0),
                   std::to_string(paper.at(row++))});
  }
  table.print(std::cout);

  const hw::KernelCost kc = apps::burgers::burgers_kernel_cost();
  std::cout << "\nkernel mix per interior cell: " << kc.flops_per_cell
            << " flops + " << kc.divs_per_cell << " div + " << kc.exps_per_cell
            << " exp (" << hw::KernelCost::kFlopsPerExp
            << " counted flops each) = " << kc.counted_flops_per_cell()
            << " counted flops (paper: ~311, 215 from exponentials)\n";
}

// Fig 5: wall time per step for the four CPE variants (host.sync is
// excluded, as in the paper).
void fig5(bench::Sweep& sweep) {
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    TextTable table("Fig 5: wall time per step, problem " + problem.name);
    std::vector<std::string> header = {"CGs"};
    for (const auto& v : kCpeVariants) header.push_back(v);
    table.set_header(header);
    for (int cgs : bench::Sweep::cg_counts(problem)) {
      std::vector<std::string> row = {std::to_string(cgs)};
      for (const auto& v : kCpeVariants)
        row.push_back(format_duration(cell(sweep, problem, v, cgs).mean_step));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
}

// Table V: strong-scaling efficiency from the least CG count to 128 CGs.
// Paper: 31.7% (16x16x512, simd.async) to 97.7% (128x128x512, acc.sync).
void table5(bench::Sweep& sweep) {
  TextTable table("Table V: strong scaling efficiency (least CGs -> 128 CGs)");
  table.set_header({"Problem", "acc.sync", "acc.async", "simd.sync", "simd.async"});
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    const int n0 = bench::Sweep::cg_counts(problem).front();
    std::vector<std::string> row = {problem.name};
    for (const auto& v : kCpeVariants) {
      row.push_back(TextTable::pct(bench::scaling_efficiency(
          cell(sweep, problem, v, n0).mean_step, n0,
          cell(sweep, problem, v, 128).mean_step, 128)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

// Tables VI/VII: the async scheduler's gain over the sync one,
// (T_sync - T_async) / T_async. Paper: best 39.3% (non-vectorized) and
// 22.8% (vectorized), average 13.5%; its 128-CG slowdowns are a machine
// anomaly not modelled here.
void improvement_table(bench::Sweep& sweep, bool vectorized,
                       bench::JsonReport& json) {
  const std::string sync_v = vectorized ? "acc_simd.sync" : "acc.sync";
  const std::string async_v = vectorized ? "acc_simd.async" : "acc.async";
  TextTable table(vectorized
                      ? "Table VII: async improvement, vectorized kernel"
                      : "Table VI: async improvement, non-vectorized kernel");
  std::vector<std::string> header = {"Problem"};
  for (int n = 1; n <= 128; n *= 2) header.push_back(std::to_string(n));
  table.set_header(header);

  double sum = 0.0, best = 0.0, sync_overlap = 0.0, async_overlap = 0.0;
  int count = 0;
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    std::vector<std::string> row = {problem.name};
    for (int n = 1; n <= 128; n *= 2) {
      if (n < problem.min_cgs) {
        row.push_back("-");
        continue;
      }
      const auto& ts = cell(sweep, problem, sync_v, n);
      const auto& ta = cell(sweep, problem, async_v, n);
      const double gain = static_cast<double>(ts.mean_step - ta.mean_step) /
                          static_cast<double>(ta.mean_step);
      sum += gain;
      ++count;
      best = std::max(best, gain);
      sync_overlap += ts.overlap_efficiency;
      async_overlap += ta.overlap_efficiency;
      row.push_back(TextTable::pct(gain));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  const std::string suffix = vectorized ? "simd" : "scalar";
  json.add_scalar("avg_improvement_" + suffix, sum / count);
  json.add_scalar("best_improvement_" + suffix, best);
  std::cout << "average improvement: " << TextTable::pct(sum / count)
            << ", best: " << TextTable::pct(best) << "\n"
            << "mean overlap efficiency: sync "
            << TextTable::pct(sync_overlap / count) << ", async "
            << TextTable::pct(async_overlap / count) << "\n\n";
}

// Figs 6-8: the boost of each porting step (Sec VII-D) on the small, medium
// and large problems: host.sync, then acc.async (offload), then
// acc_simd.async (vectorize). Paper: offload 2.7-6.0x, simd 1.3-2.2x,
// total 3.6-13.3x, larger patches boosted more.
void fig678(bench::Sweep& sweep) {
  double min_off = 1e30, max_off = 0, min_simd = 1e30, max_simd = 0,
         min_tot = 1e30, max_tot = 0;
  for (const std::string& name : {std::string("16x16x512"),
                                  std::string("32x64x512"),
                                  std::string("128x128x512")}) {
    const runtime::ProblemSpec problem = runtime::problem_by_name(name);
    TextTable table("Fig 6/7/8: optimization boost vs host.sync, problem " + name);
    table.set_header({"CGs", "host.sync", "acc.async", "acc_simd.async",
                      "offload boost", "simd boost", "total boost"});
    for (int cgs : bench::Sweep::cg_counts(problem)) {
      const TimePs th = cell(sweep, problem, "host.sync", cgs).mean_step;
      const TimePs ta = cell(sweep, problem, "acc.async", cgs).mean_step;
      const TimePs tv = cell(sweep, problem, "acc_simd.async", cgs).mean_step;
      const double off = static_cast<double>(th) / ta;
      const double sb = static_cast<double>(ta) / tv;
      const double tot = static_cast<double>(th) / tv;
      min_off = std::min(min_off, off);
      max_off = std::max(max_off, off);
      min_simd = std::min(min_simd, sb);
      max_simd = std::max(max_simd, sb);
      min_tot = std::min(min_tot, tot);
      max_tot = std::max(max_tot, tot);
      table.add_row({std::to_string(cgs), format_duration(th), format_duration(ta),
                     format_duration(tv), TextTable::num(off, 2) + "x",
                     TextTable::num(sb, 2) + "x", TextTable::num(tot, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "offload boost range: " << TextTable::num(min_off, 2) << "x - "
            << TextTable::num(max_off, 2) << "x (paper: 2.7x - 6.0x)\n"
            << "simd boost range:    " << TextTable::num(min_simd, 2) << "x - "
            << TextTable::num(max_simd, 2) << "x (paper: 1.3x - 2.2x)\n"
            << "total boost range:   " << TextTable::num(min_tot, 2) << "x - "
            << TextTable::num(max_tot, 2) << "x (paper: 3.6x - 13.3x)\n";
}

// Figs 9/10: achieved Gflop/s of acc_simd.async (modelled CPE counters) and
// its fraction of the running CGs' peak. Paper: 974.5 Gflop/s at 128 CGs on
// the largest problem (1.0% of peak); best 1.17% (64x64x512 at 2 CGs).
void fig9_10(bench::Sweep& sweep) {
  const double cg_peak = hw::MachineParams::sunway_taihulight().cg_peak_gflops();
  TextTable gf("Fig 9: floating point performance (Gflop/s), acc_simd.async");
  TextTable eff("Fig 10: floating point efficiency (% of peak), acc_simd.async");
  std::vector<std::string> header = {"Problem"};
  for (int n = 1; n <= 128; n *= 2) header.push_back(std::to_string(n));
  gf.set_header(header);
  eff.set_header(header);

  double best_eff = 0.0;
  std::string best_case;
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    std::vector<std::string> grow = {problem.name};
    std::vector<std::string> erow = {problem.name};
    for (int n = 1; n <= 128; n *= 2) {
      if (n < problem.min_cgs) {
        grow.push_back("-");
        erow.push_back("-");
        continue;
      }
      const double gflops = cell(sweep, problem, "acc_simd.async", n).gflops;
      const double frac = gflops / (cg_peak * n);
      if (frac > best_eff) {
        best_eff = frac;
        best_case = problem.name + " @ " + std::to_string(n) + " CGs";
      }
      grow.push_back(TextTable::num(gflops, 1));
      erow.push_back(TextTable::pct(frac, 2));
    }
    gf.add_row(std::move(grow));
    eff.add_row(std::move(erow));
  }
  gf.print(std::cout);
  std::cout << '\n';
  eff.print(std::cout);
  std::cout << "\nbest efficiency: " << TextTable::pct(best_eff, 2) << " ("
            << best_case << "); paper best: 1.17% (64x64x512 @ 2 CGs)\n";
  const double big =
      cell(sweep, runtime::problem_by_name("128x128x512"), "acc_simd.async", 128)
          .gflops;
  std::cout << "largest problem @ 128 CGs: " << TextTable::num(big, 1)
            << " Gflop/s (paper: 974.5 Gflop/s, 1.0% of peak)\n";
}

}  // namespace

int main() {
  bench::Sweep sweep;
  sweep.set_observe(true);
  bench::JsonReport json("paper");
  for (const runtime::ProblemSpec& problem : runtime::paper_problems())
    for (int cgs : bench::Sweep::cg_counts(problem))
      for (const runtime::Variant& v : runtime::all_variants())
        json.add({problem.name, v.name, cgs}, sweep.run(problem, v, cgs));

  table1(sweep);
  std::cout << '\n';
  fig5(sweep);
  table5(sweep);
  std::cout << '\n';
  improvement_table(sweep, /*vectorized=*/false, json);
  improvement_table(sweep, /*vectorized=*/true, json);
  fig678(sweep);
  std::cout << '\n';
  fig9_10(sweep);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return 0;
}
