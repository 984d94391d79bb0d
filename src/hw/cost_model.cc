#include "hw/cost_model.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace usw::hw {

CostModel::CostModel(const MachineParams& params) : params_(params) {
  params_.validate();
}

TimePs CostModel::cpe_compute(std::uint64_t cells, const KernelCost& cost,
                              bool simd, bool ieee_exp) const {
  const double cpf = simd ? params_.cpe_cycles_per_flop_simd
                          : params_.cpe_cycles_per_flop_scalar;
  double exp_cycles = simd ? params_.cpe_exp_cycles_simd : params_.cpe_exp_cycles_scalar;
  if (ieee_exp) exp_cycles *= params_.cpe_exp_ieee_multiplier;
  const double div_cycles = simd ? params_.cpe_div_cycles_simd : params_.cpe_div_cycles_scalar;

  const double cycles_per_cell = cost.flops_per_cell * cpf +
                                 cost.exps_per_cell * exp_cycles +
                                 cost.divs_per_cell * div_cycles;
  const double seconds =
      static_cast<double>(cells) * cycles_per_cell / params_.cpe_freq_hz;
  return seconds_to_ps(seconds);
}

TimePs CostModel::cpe_dma(std::uint64_t bytes, int active_cpes,
                          bool strided) const {
  USW_ASSERT_MSG(active_cpes >= 1 && active_cpes <= params_.cpes_per_cg,
                 "active_cpes out of range");
  const double efficiency =
      strided ? params_.dma_strided_efficiency : params_.dma_efficiency;
  const double share = params_.dram_bw_bytes_per_s * efficiency /
                       static_cast<double>(active_cpes);
  return params_.dma_startup +
         seconds_to_ps(static_cast<double>(bytes) / share);
}

TimePs CostModel::mpe_compute(std::uint64_t cells, const KernelCost& cost) const {
  const double cycles_per_cell = cost.flops_per_cell * params_.mpe_cycles_per_flop +
                                 cost.exps_per_cell * params_.mpe_exp_cycles +
                                 cost.divs_per_cell * params_.mpe_div_cycles;
  const double compute_s =
      static_cast<double>(cells) * cycles_per_cell / params_.mpe_freq_hz;
  const double bytes = static_cast<double>(cells) *
                       (cost.bytes_read_per_cell + cost.bytes_written_per_cell);
  const double memory_s = bytes / params_.mpe_mem_bw_bytes_per_s;
  // Out-of-order core with hardware prefetch: compute and memory overlap,
  // the slower one dominates.
  return seconds_to_ps(std::max(compute_s, memory_s));
}

TimePs CostModel::mpe_pack(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  return seconds_to_ps(static_cast<double>(bytes) / params_.pack_bw_bytes_per_s);
}

TimePs CostModel::message_transfer(std::uint64_t bytes) const {
  return params_.net_latency + params_.mpi_sw_latency +
         seconds_to_ps(static_cast<double>(bytes) / params_.net_bw_bytes_per_s);
}

}  // namespace usw::hw
