#pragma once

// Parameters of the modeled machine: the Sunway TaihuLight SW26010
// core-group (CG) and its interconnect, per Table II of the paper and the
// Dongarra 2016 system report.
//
// The struct has two kinds of fields:
//   * hardware shape (core counts, LDM size, frequencies, peak rates) taken
//     directly from the published machine description, and
//   * effective-cost calibration constants (cycles per emulated exponential,
//     MPI software overheads, MPE task-management costs) that are not
//     published anywhere and were tuned so the simulated evaluation lands in
//     the envelopes the paper reports (offload boost 2.7-6.0x, SIMD boost
//     1.3-2.2x, async gain up to ~39%/~23%, FP efficiency ~1% of peak).
//     Each calibration constant is documented at its declaration and the
//     calibration procedure is described in EXPERIMENTS.md.

#include <cstdint>

#include "support/units.h"

namespace usw::hw {

struct MachineParams {
  // ---- Core-group shape (SW26010, Table II / Fig 3) ----
  int cpes_per_cg = 64;             ///< compute processing elements per CG
  std::uint64_t ldm_bytes = 64 * 1024;  ///< per-CPE local data memory
  double cpe_freq_hz = 1.45e9;      ///< CPE clock
  double mpe_freq_hz = 1.45e9;      ///< MPE clock
  double mpe_peak_gflops = 23.2;    ///< MPE theoretical peak (paper IV-A)
  double cpe_cluster_peak_gflops = 742.4;  ///< 64-CPE cluster peak
  std::uint64_t cg_memory_bytes = 8ull * 1024 * 1024 * 1024;  ///< 32 GB / 4 CGs

  // ---- Memory system ----
  double dram_bw_bytes_per_s = 34.1e9;  ///< one 128-bit DDR3-2133 channel per CG
  /// DMA startup cost per athread_get/athread_put descriptor.
  TimePs dma_startup = 300 * kNanosecond;
  /// Fraction of DRAM bandwidth the CPE cluster sustains for contiguous
  /// (packed) DMA transfers.
  double dma_efficiency = 0.8;
  /// Fraction sustained for strided transfers (row-major tile staging is
  /// strided in y/z; the paper's "pack the tiles" future work targets the
  /// gap between this and dma_efficiency).
  double dma_strided_efficiency = 0.45;

  // ---- CPE kernel cost calibration ----
  /// Effective cycles per declared stencil flop on a CPE, scalar code
  /// (in-order dual-issue pipeline with dependent ops: < 1 flop/cycle).
  double cpe_cycles_per_flop_scalar = 1.25;
  /// Same with 4-wide SIMD intrinsics. Not 4x better than scalar: unaligned
  /// SIMD_LOADU and shuffle overhead per Algorithm 2.
  double cpe_cycles_per_flop_simd = 0.36;
  /// Cycles per software-emulated exponential on a CPE (fast, non-IEEE
  /// library; Sec VI-C). Dominates the kernel: calibrated so the vectorized
  /// Burgers kernel lands near 1% of theoretical peak as in Fig 10.
  double cpe_exp_cycles_scalar = 1150.0;
  /// Vectorized exponential (argument reduction vectorizes, table lookup
  /// and branching partially do not).
  double cpe_exp_cycles_simd = 510.0;
  /// IEEE-conforming exponential library (measured "slow" in the paper).
  double cpe_exp_ieee_multiplier = 3.0;
  /// Cycles per (unpipelined) division on a CPE.
  double cpe_div_cycles_scalar = 35.0;
  double cpe_div_cycles_simd = 17.0;
  /// Fixed per-tile loop setup cost on a CPE.
  TimePs cpe_tile_overhead = 2 * kMicrosecond;
  /// One faaw round trip to the shared next-tile counter in main memory
  /// (dynamic tile policy): an uncached atomic fetch-add plus the
  /// arbitration against the other 63 CPEs. Comparable to a DMA descriptor
  /// setup, far below the tile-loop overhead.
  TimePs cpe_faaw = 400 * kNanosecond;

  // ---- MPE kernel cost calibration (host.sync mode) ----
  /// The MPE is a full out-of-order core with caches and vendor libm, so its
  /// per-operation costs are far lower than a CPE's; the offload win comes
  /// from 64-way parallelism, not per-core speed.
  double mpe_cycles_per_flop = 1.0;
  double mpe_exp_cycles = 60.0;
  double mpe_div_cycles = 20.0;
  /// Effective MPE memory bandwidth through the cache hierarchy.
  double mpe_mem_bw_bytes_per_s = 6.0e9;

  // ---- Runtime-system costs (MPE side) ----
  /// MPE time to process one task: data-warehouse variable lookup and
  /// dependency bookkeeping, the fixed part of the "MPE part" of a task
  /// (Sec V-C 3(b)iii). Per-cell MPE work (reduction scans, boundary
  /// values, packing) is priced separately.
  TimePs mpe_task_overhead = 150 * kMicrosecond;
  /// athread kernel launch (spawn + argument marshalling).
  TimePs offload_launch = 25 * kMicrosecond;
  /// One check of the completion flag / one pass of the scheduler loop.
  TimePs flag_poll = 2 * kMicrosecond;
  /// Per-step fixed cost: advancing the data warehouses, checking whether
  /// regridding/load-balancing is needed (Sec V-C step 4). The C++
  /// infrastructure runs on the MPE with GCC, which the paper's port found
  /// slow; this floor drives the small-problem efficiency falloff.
  TimePs step_fixed_overhead = 3 * kMillisecond;
  /// MPE memcpy bandwidth for packing/unpacking ghost-cell MPI buffers.
  double pack_bw_bytes_per_s = 1.4e9;

  // ---- Interconnect (Table II) and MPI software costs ----
  TimePs net_latency = 1 * kMicrosecond;  ///< P2P hardware latency
  /// Effective per-CG point-to-point bandwidth. The node NIC provides
  /// 16 GB/s bidirectional shared by 4 CGs; MPE-driven MPI sustains less.
  double net_bw_bytes_per_s = 2.0e9;
  /// MPE cost to post a nonblocking send/receive.
  TimePs mpi_post_overhead = 6 * kMicrosecond;
  /// MPE cost of one MPI_Test (one progress poll, Sec V-C 3c).
  TimePs mpi_test_overhead = 1 * kMicrosecond;
  /// Incremental MPE cost per request in a bulk MPI_Testsome sweep.
  TimePs mpi_test_each = 100 * kNanosecond;
  /// Software latency added to every message by the MPI stack.
  TimePs mpi_sw_latency = 14 * kMicrosecond;
  /// Per-hop cost of tree-based reductions/broadcasts (includes software).
  TimePs coll_hop_latency = 250 * kMicrosecond;

  /// Theoretical peak of one CG in Gflop/s (MPE + CPE cluster), the
  /// denominator of Fig 10.
  double cg_peak_gflops() const { return mpe_peak_gflops + cpe_cluster_peak_gflops; }

  /// Validates internal consistency; throws ConfigError on nonsense.
  void validate() const;

  /// The machine the paper ran on.
  static MachineParams sunway_taihulight() { return MachineParams{}; }
};

}  // namespace usw::hw
