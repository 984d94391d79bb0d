// Scale smoke: 128/512/1024 simulated CGs (one host thread per CG) under
// the min-clock token, with and without message aggregation (--comm-agg).
// Extends the Fig 5 / Table 5 experiment grid an order of magnitude past
// the paper's 128-CG ceiling: a 2048-patch heat-free Burgers problem, two
// patches per CG at the top of the sweep so same-destination halo sends
// actually coalesce.
//
// The bench asserts the aggregation contract on every case: aggregation
// preserves the logical message stream (msgs_total equal) while strictly
// reducing emulated MPI posts (mpi_post_count). The virtual step
// direction is measured, not asserted: post savings dominate where ranks
// hold many patches (128 CGs), while at 1-2 patches per CG the append
// costs sit on the critical path and the step is flat to marginally
// slower — the honest trade-off lands in EXPERIMENTS.md. Host wall-clock
// is reported so the host cost of aggregation lands there too. In the
// JSON report aggregation is folded into the variant key
// ("acc_simd.async@serial+agg"): virtual metrics are gated as usual,
// host_ms only at the LOOSE class.
//
// Options:
//   --max-ranks=N    largest CG count (default 1024; CI budget knob)
//   --steps=N        timesteps per case (default 2)

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "comm/agg.h"
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
  // at least two whole patches, so each rank has multiple same-destination
  // halo sends per step for the aggregation layer to pack.
  const runtime::ProblemSpec problem =
      runtime::tiny_problem({16, 16, 8}, {8, 8, 8});
  const runtime::Variant variant = runtime::variant_by_name("acc_simd.async");
  const comm::AggSpec agg = comm::AggSpec::parse("on");

  std::vector<int> cg_counts;
  for (int cgs : {128, 512, 1024})
    if (cgs <= max_ranks) cg_counts.push_back(cgs);

  TextTable table("Scale smoke: " + variant.name + " on " + problem.name +
                  ", " + std::to_string(steps) + " steps, agg " +
                  agg.describe());
  table.set_header({"CGs", "step (virtual)", "step (agg)", "posts",
                    "posts (agg)", "serial host", "serial+agg host"});
  bool mismatch = false;
  for (int cgs : cg_counts) {
    sweep.set_comm_agg(comm::AggSpec{});
    const bench::CaseResult serial = sweep.run(problem, variant, cgs);
    sweep.set_comm_agg(agg);
    const bench::CaseResult serial_agg = sweep.run(problem, variant, cgs);

    // Aggregation contract: same logical message stream, fewer posts.
    if (serial_agg.msgs_total != serial.msgs_total) {
      std::fprintf(stderr,
                   "ERROR: aggregation changed the logical message count at "
                   "%d CGs: %.0f vs %.0f\n",
                   cgs, serial_agg.msgs_total, serial.msgs_total);
      mismatch = true;
    }
    if (serial_agg.mpi_post_count >= serial.mpi_post_count) {
      std::fprintf(stderr,
                   "ERROR: aggregation did not reduce MPI posts at %d CGs: "
                   "%.0f vs %.0f\n",
                   cgs, serial_agg.mpi_post_count, serial.mpi_post_count);
      mismatch = true;
    }
    // "@serial" keeps the committed baseline's keys from when a second
    // coordinator ran beside the token.
    json.add({problem.name, variant.name + "@serial", cgs}, serial);
    json.add({problem.name, variant.name + "@serial+agg", cgs}, serial_agg);

    char shost[32], sahost[32];
    std::snprintf(shost, sizeof shost, "%.0f ms", serial.host_ms);
    std::snprintf(sahost, sizeof sahost, "%.0f ms", serial_agg.host_ms);
    table.add_row({std::to_string(cgs), format_duration(serial.mean_step),
                   format_duration(serial_agg.mean_step),
                   TextTable::num(serial.mpi_post_count, 0),
                   TextTable::num(serial_agg.mpi_post_count, 0), shost,
                   sahost});
  }
  table.print(std::cout);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return mismatch ? EXIT_FAILURE : EXIT_SUCCESS;
}
