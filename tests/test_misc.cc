// Remaining small-surface tests: communication request hygiene checks.

#include <gtest/gtest.h>

#include "comm/comm.h"
#include "sim/coordinator.h"

namespace usw {
namespace {

TEST(CommHygiene, ResetWithPendingRequestsAborts) {
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  comm::Network net(2, cost);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    comm::Comm comm(net, coord, rank);
    if (rank == 0) {
      // A posted receive that never completes must be caught by
      // reset_requests, not silently dropped.
      comm.irecv(1, 99);
      EXPECT_DEATH(comm.reset_requests(), "still pending");
      // Let rank 1 finish.
    }
  });
}

TEST(CommHygiene, TakePayloadTwiceYieldsEmpty) {
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  comm::Network net(2, cost);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    comm::Comm comm(net, coord, rank);
    if (rank == 0) {
      comm.wait(comm.isend(1, 5, std::vector<std::byte>(16, std::byte{1})));
    } else {
      const comm::RequestId r = comm.irecv(0, 5);
      comm.wait(r);
      EXPECT_EQ(comm.take_payload(r).size(), 16u);
      EXPECT_TRUE(comm.take_payload(r).empty());  // moved out
    }
  });
}

}  // namespace
}  // namespace usw
