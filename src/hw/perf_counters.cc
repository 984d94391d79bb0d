#include "hw/perf_counters.h"

#include <sstream>

namespace usw::hw {

void PerfCounters::merge(const PerfCounters& other) {
  counted_flops += other.counted_flops;
  cells_computed += other.cells_computed;
  tiles_executed += other.tiles_executed;
  tile_grabs += other.tile_grabs;
  kernels_offloaded += other.kernels_offloaded;
  kernels_on_mpe += other.kernels_on_mpe;
  dma_bytes_in += other.dma_bytes_in;
  dma_bytes_out += other.dma_bytes_out;
  pack_bytes += other.pack_bytes;
  messages_sent += other.messages_sent;
  messages_received += other.messages_received;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  reductions += other.reductions;
  mpi_posts += other.mpi_posts;
  fault_injected += other.fault_injected;
  fault_retries += other.fault_retries;
  fault_degraded += other.fault_degraded;
  fault_restarts += other.fault_restarts;
  kernel_time += other.kernel_time;
  mpe_task_time += other.mpe_task_time;
  comm_time += other.comm_time;
  wait_time += other.wait_time;
}

std::string PerfCounters::summary() const {
  std::ostringstream os;
  os << "flops=" << counted_flops << " cells=" << cells_computed
     << " tiles=" << tiles_executed << " offloads=" << kernels_offloaded
     << " mpe_kernels=" << kernels_on_mpe << " dma_in=" << format_bytes(dma_bytes_in)
     << " dma_out=" << format_bytes(dma_bytes_out)
     << " msgs=" << messages_sent << "/" << messages_received
     << " bytes=" << format_bytes(bytes_sent) << "/" << format_bytes(bytes_received)
     << " faults=" << fault_injected << "/" << fault_retries
     << " kernel=" << format_duration(kernel_time)
     << " task=" << format_duration(mpe_task_time)
     << " comm=" << format_duration(comm_time)
     << " wait=" << format_duration(wait_time);
  return os.str();
}

}  // namespace usw::hw
