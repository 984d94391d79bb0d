// Scale smoke: 128/512/1024 simulated CGs (one host thread per CG) under
// the min-clock token. Extends the Fig 5 / Table 5 experiment grid an
// order of magnitude past the paper's 128-CG ceiling: a 2048-patch
// Burgers problem, two patches per CG at the top of the sweep.
//
// The bench asserts the one send path on every case: a fault-free run
// posts exactly one send and one receive per message, so mpi_post_count
// is twice msgs_total. Host wall-clock is reported beside the virtual
// step, so the coordinator's host cost at scale lands in EXPERIMENTS.md.
// In the JSON report virtual metrics are gated as usual, host_ms only at
// the LOOSE class.
//
// Options:
//   --max-ranks=N    largest CG count (default 1024; CI budget knob)
//   --steps=N        timesteps per case (default 2)

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "json_report.h"
#include "runtime/problem.h"
#include "runtime/variant.h"
#include "support/options.h"
#include "support/table.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace usw;
  const Options opts(argc, argv);
  const int max_ranks = static_cast<int>(opts.get_int("max-ranks", 1024));
  const int steps = static_cast<int>(opts.get_int("steps", 2));
  bench::Sweep sweep(steps);
  bench::JsonReport json("scale_smoke");

  // 16x16x8 = 2048 patches of 8^3 cells: every CG count in the sweep gets
  // at least two whole patches.
  const runtime::ProblemSpec problem =
      runtime::tiny_problem({16, 16, 8}, {8, 8, 8});
  const runtime::Variant variant = runtime::variant_by_name("acc_simd.async");

  std::vector<int> cg_counts;
  for (int cgs : {128, 512, 1024})
    if (cgs <= max_ranks) cg_counts.push_back(cgs);

  TextTable table("Scale smoke: " + variant.name + " on " + problem.name +
                  ", " + std::to_string(steps) + " steps");
  table.set_header({"CGs", "step (virtual)", "messages", "posts", "host"});
  bool mismatch = false;
  for (int cgs : cg_counts) {
    const bench::CaseResult res = sweep.run(problem, variant, cgs);
    if (res.mpi_post_count != 2 * res.msgs_total) {
      std::fprintf(stderr,
                   "ERROR: %.0f MPI posts for %.0f messages at %d CGs; "
                   "expected one send and one receive post per message\n",
                   res.mpi_post_count, res.msgs_total, cgs);
      mismatch = true;
    }
    // "@serial" keeps the committed baseline's keys from when a second
    // coordinator ran beside the token.
    json.add({problem.name, variant.name + "@serial", cgs}, res);

    char host[32];
    std::snprintf(host, sizeof host, "%.0f ms", res.host_ms);
    table.add_row({std::to_string(cgs), format_duration(res.mean_step),
                   TextTable::num(res.msgs_total, 0),
                   TextTable::num(res.mpi_post_count, 0), host});
  }
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return mismatch ? EXIT_FAILURE : EXIT_SUCCESS;
}
