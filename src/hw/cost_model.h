#pragma once

// Virtual-time cost model for the SW26010 core-group.
//
// Kernels declare their per-cell operation mix (KernelCost); the cost model
// converts cell counts + operation mix into virtual picoseconds for either
// a CPE (scalar or SIMD) or the MPE, and prices DMA transfers, ghost-buffer
// packing, and MPI software operations. All scheduler timing flows through
// this one class, so the calibration story stays in one place.

#include <cstdint>

#include "hw/machine_params.h"
#include "support/units.h"

namespace usw::hw {

/// Per-cell operation mix of a numerical kernel, declared by the
/// application alongside its kernel functions. The FLOP-counter convention
/// matches the paper's hardware counters: an exponential contributes
/// `kFlopsPerExp` counted flops and a division contributes one.
struct KernelCost {
  double flops_per_cell = 0.0;    ///< adds/subs/muls/fmas (fma counts as 2)
  double exps_per_cell = 0.0;     ///< software-emulated exponentials
  double divs_per_cell = 0.0;     ///< floating-point divisions
  double bytes_read_per_cell = 0.0;
  double bytes_written_per_cell = 0.0;

  /// Counted flops per exponential in the SW26010 performance counters;
  /// the paper measures ~215 of ~311 flops/cell from 6 exps => ~36 each.
  static constexpr double kFlopsPerExp = 36.0;

  /// The same mix with `factor` times the work per cell (spatially varying
  /// workloads, e.g. iterative physics converging slower in some regions).
  KernelCost scaled(double factor) const {
    KernelCost c = *this;
    c.flops_per_cell *= factor;
    c.exps_per_cell *= factor;
    c.divs_per_cell *= factor;
    return c;
  }

  /// Flops reported by the (modeled) hardware counter for one cell.
  double counted_flops_per_cell() const {
    return flops_per_cell + exps_per_cell * kFlopsPerExp + divs_per_cell;
  }
};

class CostModel {
 public:
  explicit CostModel(const MachineParams& params);

  const MachineParams& params() const { return params_; }

  // ---- CPE cluster ----

  /// Compute time for `cells` cells of kernel `cost` on ONE CPE.
  /// `simd` selects the vectorized variant; `ieee_exp` the slow exponential
  /// library. `interior_fraction` in (0,1]: SIMD epilogue/remainder handling
  /// is charged on the non-multiple-of-width part.
  TimePs cpe_compute(std::uint64_t cells, const KernelCost& cost, bool simd,
                     bool ieee_exp = false) const;

  /// One synchronous DMA transfer (athread_get/put) of `bytes` by one CPE
  /// while `active_cpes` CPEs contend for the memory controller. Strided
  /// transfers (row-major tile staging) run at reduced efficiency.
  TimePs cpe_dma(std::uint64_t bytes, int active_cpes, bool strided = true) const;

  /// Fixed per-tile loop setup on a CPE.
  TimePs cpe_tile_overhead() const { return params_.cpe_tile_overhead; }

  /// One faaw round trip to the shared tile counter (self-scheduling grab).
  TimePs cpe_faaw() const { return params_.cpe_faaw; }

  // ---- MPE ----

  /// Compute time for `cells` cells of kernel `cost` on the MPE
  /// (host.sync mode): max of compute cost and cache-hierarchy bandwidth.
  TimePs mpe_compute(std::uint64_t cells, const KernelCost& cost) const;

  /// MPE time to pack or unpack `bytes` of ghost data for MPI.
  TimePs mpe_pack(std::uint64_t bytes) const;

  TimePs mpe_task_overhead() const { return params_.mpe_task_overhead; }
  TimePs offload_launch() const { return params_.offload_launch; }
  TimePs flag_poll() const { return params_.flag_poll; }
  TimePs step_fixed_overhead() const { return params_.step_fixed_overhead; }

  // ---- Network / MPI ----

  /// End-to-end transfer time of a message of `bytes` (excluding the
  /// sender/receiver software overheads, which are charged to the MPE).
  TimePs message_transfer(std::uint64_t bytes) const;

  TimePs mpi_post_overhead() const { return params_.mpi_post_overhead; }
  TimePs mpi_test_overhead() const { return params_.mpi_test_overhead; }

 private:
  MachineParams params_;
};

}  // namespace usw::hw
