#include "hw/machine_params.h"

#include "support/error.h"

namespace usw::hw {

void MachineParams::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw ConfigError(what);
  };
  require(cpes_per_cg > 0, "cpes_per_cg must be positive");
  require(ldm_bytes >= 1024, "ldm_bytes implausibly small");
  require(cpe_freq_hz > 0 && mpe_freq_hz > 0, "core frequencies must be positive");
  require(dram_bw_bytes_per_s > 0, "dram bandwidth must be positive");
  require(dma_efficiency > 0 && dma_efficiency <= 1.0, "dma_efficiency in (0,1]");
  require(dma_strided_efficiency > 0 && dma_strided_efficiency <= dma_efficiency,
          "dma_strided_efficiency in (0, dma_efficiency]");
  require(cpe_cycles_per_flop_scalar > 0 && cpe_cycles_per_flop_simd > 0,
          "cycle costs must be positive");
  require(cpe_exp_cycles_scalar > 0 && cpe_exp_cycles_simd > 0,
          "exp costs must be positive");
  require(cpe_exp_ieee_multiplier >= 1.0, "IEEE exp must not be cheaper than fast exp");
  require(mpe_mem_bw_bytes_per_s > 0 && pack_bw_bytes_per_s > 0,
          "MPE bandwidths must be positive");
  require(net_bw_bytes_per_s > 0, "network bandwidth must be positive");
  require(net_latency >= 0 && mpi_sw_latency >= 0 && coll_hop_latency >= 0,
          "latencies must be non-negative");
  require(mpe_task_overhead >= 0 && offload_launch >= 0 && flag_poll >= 0 &&
              step_fixed_overhead >= 0,
          "overheads must be non-negative");
  require(cpe_tile_overhead >= 0 && cpe_faaw >= 0,
          "CPE tile costs must be non-negative");
}

}  // namespace usw::hw
