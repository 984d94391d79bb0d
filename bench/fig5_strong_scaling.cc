// Reproduces Figure 5: wall time per timestep when strong-scaling every
// Table III problem from its smallest CG count to 128 CGs, for the four
// CPE-offload variants (host.sync is excluded, as in the paper).

#include <cstdio>
#include <iostream>

#include "json_report.h"
#include "runtime/problem.h"
#include "runtime/variant.h"
#include "support/table.h"
#include "sweep.h"

int main() {
  using namespace usw;
  bench::Sweep sweep;
  sweep.set_observe(true);
  bench::JsonReport json("fig5_strong_scaling");

  const std::vector<std::string> variants = {"acc.sync", "acc.async",
                                             "acc_simd.sync", "acc_simd.async"};

  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    TextTable table("Fig 5: wall time per step, problem " + problem.name);
    std::vector<std::string> header = {"CGs"};
    for (const auto& v : variants) header.push_back(v);
    table.set_header(header);
    for (int cgs : bench::Sweep::cg_counts(problem)) {
      std::vector<std::string> row = {std::to_string(cgs)};
      for (const auto& vname : variants) {
        const auto& res =
            sweep.run(problem, runtime::variant_by_name(vname), cgs);
        json.add({problem.name, vname, cgs}, res);
        row.push_back(format_duration(res.mean_step));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  const std::string path = json.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return 0;
}
