#pragma once

// Per-core-group performance counters, modeling the precise hardware
// counters on SW26010 the paper uses for Table I and Fig 9/10.
//
// Convention (Sec VII-E): counters are precise but count a division or a
// square root as a single floating-point operation; an emulated exponential
// contributes its full software expansion (~36 flops). Counters are plain
// accumulators incremented by the athread layer and schedulers; they carry
// no virtual time of their own.
//
// Concurrency contract: the fields are deliberately plain, NOT atomic. A
// PerfCounters instance must only ever be written by one thread at a time:
// the per-rank instance is written by that rank's host thread alone. CPE
// bodies count nothing; the MPE adds each offload's counters before the
// spawn, share by share in CPE-id order (sched::charge_offload), which
// keeps the floating-point `counted_flops` sum in one fixed order.

#include <cstdint>
#include <string>

#include "hw/cost_model.h"
#include "support/units.h"

namespace usw::hw {

struct PerfCounters {
  // Floating point (hardware-counter convention).
  double counted_flops = 0.0;

  // Work volume.
  std::uint64_t cells_computed = 0;
  std::uint64_t tiles_executed = 0;
  std::uint64_t tile_grabs = 0;  ///< self-scheduling faaw grabs (dynamic policy)
  std::uint64_t kernels_offloaded = 0;
  std::uint64_t kernels_on_mpe = 0;

  // Memory traffic.
  std::uint64_t dma_bytes_in = 0;    ///< main memory -> LDM (athread_get)
  std::uint64_t dma_bytes_out = 0;   ///< LDM -> main memory (athread_put)
  std::uint64_t pack_bytes = 0;      ///< MPE ghost pack/unpack traffic

  // Communication. messages_sent counts sends, retransmits included;
  // mpi_posts counts MPI operations posted (sends + recvs + retransmits).
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t reductions = 0;
  std::uint64_t mpi_posts = 0;

  // Resilience (src/fault): injected faults and the recovery they drove.
  std::uint64_t fault_injected = 0;   ///< faults fired (all kinds)
  std::uint64_t fault_retries = 0;    ///< offload re-runs, DMA re-issues, retransmits
  std::uint64_t fault_degraded = 0;   ///< CPE groups degraded to MPE-only
  std::uint64_t fault_restarts = 0;   ///< restarts from checkpoint (controller)

  // Virtual time breakdown (MPE perspective).
  TimePs kernel_time = 0;     ///< CPE cluster busy (or MPE in host mode)
  TimePs mpe_task_time = 0;   ///< task management / MPE parts of tasks
  TimePs comm_time = 0;       ///< posting/testing/packing MPI
  TimePs wait_time = 0;       ///< MPE idle, spinning on flag or messages

  /// Accumulates `cells` worth of kernel `cost` into the flop counter.
  void count_kernel_cells(std::uint64_t cells, const KernelCost& cost) {
    counted_flops += static_cast<double>(cells) * cost.counted_flops_per_cell();
    cells_computed += cells;
  }

  void merge(const PerfCounters& other);

  std::string summary() const;
};

}  // namespace usw::hw
