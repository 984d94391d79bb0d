#pragma once

// Sweep driver for the paper reproduction and the scale smoke.
//
// The paper evaluates one grid (Sec VII-A): each Table III problem, from
// its smallest feasible CG count up to 128 CGs in powers of two, for each
// Table IV variant, 10 timesteps each. bench/paper_sweep runs that grid
// once, observed, and prints every table and figure as a view of the
// cached cells; bench/scale_smoke runs its own shapes unobserved. Runs use
// timing-only storage, and results are keyed by (problem, variant, CGs)
// and cached within one binary.

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/controller.h"
#include "support/units.h"

namespace usw::bench {

struct CaseKey {
  std::string problem;
  std::string variant;
  int ranks = 0;

  friend bool operator<(const CaseKey& a, const CaseKey& b) {
    return std::tie(a.problem, a.variant, a.ranks) <
           std::tie(b.problem, b.variant, b.ranks);
  }
};

struct CaseResult {
  TimePs mean_step = 0;       ///< wall time per timestep (slowest rank)
  double gflops = 0.0;        ///< achieved, Fig 9's metric
  double counted_flops = 0.0; ///< per run (10 steps)

  // Filled only when the sweep observes its runs (Sweep::set_observe):
  double overlap_efficiency = 0.0;  ///< 1 - wait/wall over the whole run
  TimePs wait_ps = 0;               ///< summed MPE idle (all ranks, steps)
  TimePs critical_path_ps = 0;      ///< mean per-step critical path
  /// Mean per-offload CPE idle fraction (offload.cpe_idle_frac samples;
  /// 0 when nothing was offloaded or observation is off).
  double cpe_idle_frac = 0.0;
  /// Host (real) wall-clock of the whole run, milliseconds. Machine- and
  /// load-dependent: bench_compare gates it only at a very loose tolerance
  /// (a sanity net against pathological slowdowns, not a perf contract).
  double host_ms = 0.0;

  // Comm-layer volume, always filled from the merged perf counters. Both
  // are exact-deterministic; bench_compare gates them HIGHER_IS_WORSE so
  // a change that silently inflates traffic or post overhead fails CI.
  double msgs_total = 0.0;     ///< messages sent
  double mpi_post_count = 0.0; ///< emulated MPI_Isend/Irecv posts charged
};

class Sweep {
 public:
  explicit Sweep(int timesteps = 10) : timesteps_(timesteps) {}

  /// When on, every subsequent run collects trace + metrics and fills the
  /// observability fields of CaseResult (at some simulation-memory cost).
  void set_observe(bool on) { observe_ = on; }

  /// Runs (or returns the cached) case.
  const CaseResult& run(const runtime::ProblemSpec& problem,
                        const runtime::Variant& variant, int ranks);

  /// CG counts evaluated for a problem: min_cgs, then powers of two up to
  /// 128 (Sec VII-A: "from the smallest possible number of CGs to 128").
  static std::vector<int> cg_counts(const runtime::ProblemSpec& problem);

  int timesteps() const { return timesteps_; }

 private:
  int timesteps_;
  bool observe_ = false;
  std::map<CaseKey, CaseResult> cache_;
};

/// Strong-scaling efficiency from n0 to n1 CGs: T(n0)*n0 / (T(n1)*n1).
double scaling_efficiency(TimePs t0, int n0, TimePs t1, int n1);

}  // namespace usw::bench
