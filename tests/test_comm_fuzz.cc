// Randomized stress test of the communication substrate: every rank sends
// a random matrix of messages with random tags and sizes; receivers post
// in shuffled order and everything must match, byte-exactly, with
// deterministic virtual timings across repeats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "comm/comm.h"
#include "sim/coordinator.h"
#include "support/rng.h"

namespace usw::comm {
namespace {

struct Plan {
  // For each (src, dst): list of (tag, payload bytes, seed).
  struct Msg {
    int tag;
    std::size_t bytes;
    std::uint64_t seed;
  };
  std::map<std::pair<int, int>, std::vector<Msg>> traffic;
};

Plan make_plan(int nranks, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Plan plan;
  for (int src = 0; src < nranks; ++src)
    for (int dst = 0; dst < nranks; ++dst) {
      if (src == dst) continue;
      const int n = static_cast<int>(rng.next_u64() % 4);
      for (int m = 0; m < n; ++m)
        plan.traffic[{src, dst}].push_back(Plan::Msg{
            static_cast<int>(rng.next_u64() % 5),
            static_cast<std::size_t>(8 + rng.next_u64() % 4096), rng.next_u64()});
    }
  return plan;
}

std::vector<std::byte> make_payload(std::size_t bytes, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::byte> out(bytes);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64() % 256);
  return out;
}

/// Runs the plan; returns each rank's final virtual time.
std::vector<TimePs> run_plan(const Plan& plan, int nranks, std::uint64_t seed) {
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  Network net(nranks, cost);
  std::vector<TimePs> finals(static_cast<std::size_t>(nranks));
  sim::run_ranks(nranks, [&](sim::Coordinator& coord, int rank) {
    Comm comm(net, coord, rank);
    SplitMix64 rng(seed ^ static_cast<std::uint64_t>(rank) * 1234567);

    // Post all sends, interleaved with small local work.
    std::vector<RequestId> sends;
    for (int dst = 0; dst < nranks; ++dst) {
      auto it = plan.traffic.find({rank, dst});
      if (it == plan.traffic.end()) continue;
      for (const Plan::Msg& m : it->second) {
        comm.advance(static_cast<TimePs>(rng.next_u64() % 50) * kMicrosecond);
        sends.push_back(comm.isend(dst, m.tag, make_payload(m.bytes, m.seed)));
      }
    }

    // Post receives in a shuffled order; within one (src, tag) stream the
    // non-overtaking rule still applies, so expectations are tracked in
    // per-stream FIFO order.
    struct Expected {
      RequestId req;
      int src;
      int tag;
    };
    std::vector<Expected> expected;
    std::map<std::pair<int, int>, std::vector<const Plan::Msg*>> streams;
    for (int src = 0; src < nranks; ++src) {
      auto it = plan.traffic.find({src, rank});
      if (it == plan.traffic.end()) continue;
      for (const Plan::Msg& m : it->second)
        streams[{src, m.tag}].push_back(&m);
    }
    // Shuffle the posting order of streams deterministically.
    std::vector<std::pair<int, int>> keys;
    for (const auto& [key, msgs] : streams) keys.push_back(key);
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[rng.next_u64() % i]);
    for (const auto& key : keys)
      for (std::size_t m = 0; m < streams[key].size(); ++m)
        expected.push_back(
            Expected{comm.irecv(key.first, key.second), key.first, key.second});

    // Wait for everything and verify payloads stream-by-stream.
    std::vector<RequestId> all = sends;
    for (const Expected& e : expected) all.push_back(e.req);
    comm.wait_all(all);
    std::map<std::pair<int, int>, std::size_t> cursor;
    for (const Expected& e : expected) {
      const auto payload = comm.take_payload(e.req);
      const std::pair<int, int> key{e.src, e.tag};
      const Plan::Msg& m = *streams[key][cursor[key]++];
      ASSERT_EQ(payload.size(), m.bytes);
      const auto ref = make_payload(m.bytes, m.seed);
      ASSERT_EQ(std::memcmp(payload.data(), ref.data(), m.bytes), 0)
          << "src " << e.src << " tag " << e.tag;
    }
    EXPECT_EQ(comm.pending_requests(), 0u);
    finals[static_cast<std::size_t>(rank)] = comm.now();
  });
  return finals;
}

class CommFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CommFuzz, RandomTrafficMatchesAndIsDeterministic) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 997 + 5;
  for (int nranks : {2, 5, 8}) {
    const Plan plan = make_plan(nranks, seed);
    const auto a = run_plan(plan, nranks, seed);
    const auto b = run_plan(plan, nranks, seed);
    EXPECT_EQ(a, b) << "timings changed across identical runs";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace usw::comm
