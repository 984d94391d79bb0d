// Tests for the real-threads CPE execution backend: worker-pool mechanics,
// offload protocol parity with the serial backend, and the central
// guarantee that Backend::kSerial and Backend::kThreads produce
// bit-identical field data, identical virtual times, and identical merged
// performance counters.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/advect/advect_app.h"
#include "apps/burgers/burgers_app.h"
#include "apps/heat/heat_app.h"
#include "athread/athread.h"
#include "athread/worker_pool.h"
#include "runtime/controller.h"
#include "sched/tile_policy.h"
#include "sim/coordinator.h"
#include "support/test_helpers.h"

using usw::test::slurp_tree;
using usw::test::span_difference;
using usw::test::spawn_busy;

namespace usw {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Backend selection plumbing.

TEST(Backend, ParsesAndPrints) {
  EXPECT_EQ(athread::backend_from_string("serial"), athread::Backend::kSerial);
  EXPECT_EQ(athread::backend_from_string("threads"), athread::Backend::kThreads);
  EXPECT_STREQ(athread::to_string(athread::Backend::kSerial), "serial");
  EXPECT_STREQ(athread::to_string(athread::Backend::kThreads), "threads");
  EXPECT_THROW(athread::backend_from_string("cuda"), ConfigError);
}

TEST(Backend, RunConfigRejectsNegativePoolSize) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 1, 1}, {8, 8, 8});
  config.backend = athread::Backend::kThreads;
  config.backend_threads = -1;
  EXPECT_THROW(config.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// WorkerPool.

TEST(WorkerPool, RunsEveryTaskWithValidWorkerIndex) {
  std::atomic<int> ran{0};
  std::atomic<bool> bad_index{false};
  {
    athread::WorkerPool pool(4);
    EXPECT_EQ(pool.stats().per_worker.size(), 4u);
    for (int i = 0; i < 200; ++i)
      pool.submit([&](int worker) {
        if (worker < 0 || worker >= 4) bad_index = true;
        ran.fetch_add(1);
      });
  }  // destructor drains the queue and joins
  EXPECT_EQ(ran.load(), 200);
  EXPECT_FALSE(bad_index.load());
}

TEST(WorkerPool, DefaultSizeIsSane) {
  const int n = athread::WorkerPool::default_size();
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 16);
  athread::WorkerPool pool;  // default-sized pool starts and stops cleanly
  EXPECT_EQ(pool.stats().per_worker.size(), static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------------------
// CpeCluster protocol under the threads backend. These mirror the serial
// semantics tests in test_athread.cc: the virtual-time protocol must be
// indistinguishable.

hw::MachineParams machine() { return hw::MachineParams::sunway_taihulight(); }

template <typename Fn>
void with_cluster(athread::Backend backend, int n_groups, Fn&& body) {
  const hw::CostModel cost(machine());
  athread::WorkerPool pool(4);  // >1 worker even on 1-core CI hosts
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    hw::PerfCounters counters;
    athread::CpeCluster cluster(cost, coord, rank, &counters, n_groups,
                                backend, &pool);
    body(coord, cluster, counters);
  });
}

TEST(ThreadsBackend, CompletionIsMaxOverCpes) {
  with_cluster(athread::Backend::kThreads, 1,
               [](sim::Coordinator& coord, athread::CpeCluster& cluster,
                  hw::PerfCounters&) {
    // CPE 63 is slowest; the completion is fixed at spawn, before any
    // body has necessarily run.
    spawn_busy(
        cluster, [](int id) { return (id + 1) * kMicrosecond; },
        [](athread::CpeContext&) {});
    const TimePs spawn_done = coord.now(0);
    EXPECT_EQ(cluster.completion_time(), spawn_done + 64 * kMicrosecond);
    cluster.join();
    EXPECT_EQ(coord.now(0), spawn_done + 64 * kMicrosecond);
  });
}

TEST(ThreadsBackend, BodiesMoveDataConcurrently) {
  with_cluster(athread::Backend::kThreads, 1,
               [](sim::Coordinator&, athread::CpeCluster& cluster,
                  hw::PerfCounters& counters) {
    // Every CPE reads its own 64-double slice and writes it doubled to the
    // result: disjoint write-sets, real concurrency.
    std::vector<double> main_mem(64 * 64, 1.5);
    std::vector<double> result(64 * 64, 0.0);
    cluster.spawn([&](athread::CpeContext& ctx) {
      const std::size_t off = static_cast<std::size_t>(ctx.cpe_id()) * 64;
      for (std::size_t i = off; i < off + 64; ++i)
        result[i] = 2.0 * main_mem[i];
    });
    cluster.join();
    for (double x : result) EXPECT_DOUBLE_EQ(x, 3.0);
    EXPECT_EQ(counters.kernels_offloaded, 1u);
  });
}

TEST(ThreadsBackend, EmptyJobDispatchesNothing) {
  // A timing-only offload spawns an empty job: the MPE's busy times stand,
  // and nothing reaches the pool.
  const hw::CostModel cost(machine());
  athread::WorkerPool pool(2);
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, nullptr, 2,
                                athread::Backend::kThreads, &pool);
    spawn_busy(cluster, [](int id) { return id * kNanosecond; }, {}, 1);
    EXPECT_EQ(cluster.completion_time(1), coord.now(rank) + 31 * kNanosecond);
    cluster.join(1);
  });
  EXPECT_EQ(pool.stats().tasks, 0u);
}

TEST(ThreadsBackend, ExceptionInCpeBodySurfacesAtSync) {
  EXPECT_THROW(
      with_cluster(athread::Backend::kThreads, 1,
                   [](sim::Coordinator&, athread::CpeCluster& cluster,
                      hw::PerfCounters&) {
        cluster.spawn([](athread::CpeContext& ctx) {
          if (ctx.cpe_id() == 3) throw StateError("injected CPE failure");
        });
        cluster.join();  // first failing CPE id rethrown here
      }),
      StateError);
}

TEST(ThreadsBackend, JobIsReleasedWhenPollSeesCompletion) {
  with_cluster(athread::Backend::kThreads, 1,
               [](sim::Coordinator&, athread::CpeCluster& cluster,
                  hw::PerfCounters&) {
    // The workers' shared copy of the job is dropped when the poll that
    // observes completion has waited for them, so what it captures is
    // freed with the offload.
    const auto sentinel = std::make_shared<int>(0);
    spawn_busy(
        cluster, [](int) { return kMicrosecond; },
        [sentinel](athread::CpeContext&) {});
    while (!cluster.poll()) {
    }
    EXPECT_EQ(sentinel.use_count(), 1);
  });
}

TEST(ThreadsBackend, DestructorWaitsForDispatchedBodies) {
  // Destroying the cluster with an offload still in flight must block until
  // the workers are done with the group's slots — no use-after-free, which
  // ASan/TSan CI legs would catch.
  std::atomic<int> ran{0};
  with_cluster(athread::Backend::kThreads, 1,
               [&](sim::Coordinator&, athread::CpeCluster& cluster,
                   hw::PerfCounters&) {
    cluster.spawn([&ran](athread::CpeContext&) { ran.fetch_add(1); });
    // No poll/join: the rank finishes with the offload "in flight".
  });
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------------------
// Serial/threads equivalence on the offload protocol, including many small
// offloads across independent CPE groups (the spawn/join stress the worker
// pool sees from the multi-group async scheduler).

struct StressOutcome {
  std::vector<TimePs> completions;
  std::vector<double> data;
  hw::PerfCounters counters;
};

StressOutcome run_stress(athread::Backend backend) {
  constexpr int kGroups = 4;
  constexpr int kRounds = 32;
  StressOutcome out;
  const hw::CostModel cost(machine());
  athread::WorkerPool pool(3);  // deliberately not a divisor of 16
  sim::run_ranks(1, [&](sim::Coordinator& coord, int rank) {
    athread::CpeCluster cluster(cost, coord, rank, &out.counters, kGroups,
                                backend, &pool);
    const int gs = cluster.group_size();
    out.data.assign(static_cast<std::size_t>(kGroups) * gs, 0.0);
    for (int round = 0; round < kRounds; ++round) {
      for (int g = 0; g < kGroups; ++g) {
        spawn_busy(
            cluster,
            [round](int id) {
              return (10 + id) * kNanosecond + (id + round) % 5 * kNanosecond;
            },
            [&, g, round](athread::CpeContext& ctx) {
              out.data[static_cast<std::size_t>(g * gs + ctx.cpe_id())] =
                  g * 1000.0 + round + ctx.cpe_id() * 0.001;
            },
            g);
      }
      for (int g = 0; g < kGroups; ++g) {
        out.completions.push_back(cluster.completion_time(g));
        cluster.join(g);
      }
    }
    (void)rank;
  });
  return out;
}

void expect_counters_identical(const hw::PerfCounters& a,
                               const hw::PerfCounters& b) {
  EXPECT_EQ(a.counted_flops, b.counted_flops);  // bit-identical, not approx
  EXPECT_EQ(a.cells_computed, b.cells_computed);
  EXPECT_EQ(a.tiles_executed, b.tiles_executed);
  EXPECT_EQ(a.tile_grabs, b.tile_grabs);
  EXPECT_EQ(a.kernels_offloaded, b.kernels_offloaded);
  EXPECT_EQ(a.kernels_on_mpe, b.kernels_on_mpe);
  EXPECT_EQ(a.dma_bytes_in, b.dma_bytes_in);
  EXPECT_EQ(a.dma_bytes_out, b.dma_bytes_out);
  EXPECT_EQ(a.pack_bytes, b.pack_bytes);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_received, b.messages_received);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.reductions, b.reductions);
  EXPECT_EQ(a.kernel_time, b.kernel_time);
  EXPECT_EQ(a.mpe_task_time, b.mpe_task_time);
  EXPECT_EQ(a.comm_time, b.comm_time);
  EXPECT_EQ(a.wait_time, b.wait_time);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.fault_degraded, b.fault_degraded);
  EXPECT_EQ(a.fault_restarts, b.fault_restarts);
}

TEST(ThreadsBackend, OneActiveCpeRunsOneBodyAndPublishesTheSame) {
  // The threads backend submits only the working CPE's body and waits for
  // its one completion; the offload publishes what naming all 64 CPEs,
  // the others idle, publishes.
  struct Outcome {
    std::atomic<int> bodies{0};
    std::vector<TimePs> busy;
    TimePs completion = 0;
    hw::PerfCounters counters;
  };
  const auto run = [](bool only_five, Outcome& out) {
    with_cluster(athread::Backend::kThreads, 1,
                 [&](sim::Coordinator&, athread::CpeCluster& cluster,
                     hw::PerfCounters& counters) {
      const athread::CpeJob count = [&](athread::CpeContext&) {
        out.bodies.fetch_add(1);
      };
      const int five[] = {5};
      const TimePs five_busy[] = {3 * kMicrosecond};
      if (only_five) {
        cluster.set_work(five, five_busy);
        cluster.spawn(count);
      } else {
        spawn_busy(
            cluster, [](int id) { return id == 5 ? 3 * kMicrosecond : 0; },
            count);
      }
      out.busy = cluster.cpe_busy();
      out.completion = cluster.completion_time();
      cluster.join();
      out.counters = counters;
    });
  };
  Outcome all;
  Outcome one;
  run(false, all);
  run(true, one);
  EXPECT_EQ(all.bodies.load(), 64);
  EXPECT_EQ(one.bodies.load(), 1);
  EXPECT_EQ(one.busy, all.busy);
  EXPECT_EQ(one.completion, all.completion);
  expect_counters_identical(one.counters, all.counters);
}

TEST(BackendStress, ManySmallOffloadsAcrossGroups) {
  const StressOutcome serial = run_stress(athread::Backend::kSerial);
  const StressOutcome threads = run_stress(athread::Backend::kThreads);
  ASSERT_EQ(serial.completions.size(), threads.completions.size());
  EXPECT_EQ(serial.completions, threads.completions);
  ASSERT_EQ(serial.data.size(), threads.data.size());
  for (std::size_t i = 0; i < serial.data.size(); ++i)
    EXPECT_EQ(serial.data[i], threads.data[i]) << "slot " << i;
  expect_counters_identical(serial.counters, threads.counters);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: full simulations must give byte-identical
// archived fields, identical per-step virtual walls, identical application
// metrics, and identical merged counters.

runtime::RunResult run_app(const std::string& app_name,
                           const std::string& variant,
                           athread::Backend backend,
                           const std::string& output_dir) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  config.variant = runtime::variant_by_name(variant);
  config.backend = backend;
  config.backend_threads = 4;
  config.nranks = 2;
  config.timesteps = 4;
  config.cpe_groups = 2;
  config.output_dir = output_dir;
  config.output_interval = 2;
  if (app_name == "burgers") {
    return runtime::run_simulation(config, apps::burgers::BurgersApp());
  } else if (app_name == "heat") {
    apps::heat::HeatApp::Config hc;
    hc.stages = 2;
    return runtime::run_simulation(config, apps::heat::HeatApp(hc));
  }
  return runtime::run_simulation(config, apps::advect::AdvectApp());
}

class BackendEquivalence : public ::testing::TestWithParam<
                               std::tuple<std::string, std::string>> {};

TEST_P(BackendEquivalence, FieldsVirtualTimesAndCountersMatch) {
  const auto& [app, variant] = GetParam();
  const std::string base = ::testing::TempDir() + "/usw_backend_eq_" + app +
                           "_" + variant;
  const std::string dir_serial = base + "_serial";
  const std::string dir_threads = base + "_threads";
  fs::remove_all(dir_serial);
  fs::remove_all(dir_threads);

  const runtime::RunResult serial =
      run_app(app, variant, athread::Backend::kSerial, dir_serial);
  const runtime::RunResult threads =
      run_app(app, variant, athread::Backend::kThreads, dir_threads);

  // Identical virtual times, per rank and per step.
  ASSERT_EQ(serial.ranks.size(), threads.ranks.size());
  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    EXPECT_EQ(serial.ranks[r].init_wall, threads.ranks[r].init_wall);
    EXPECT_EQ(serial.ranks[r].step_walls, threads.ranks[r].step_walls);
    EXPECT_EQ(serial.ranks[r].metrics, threads.ranks[r].metrics);  // bitwise
    expect_counters_identical(serial.ranks[r].counters,
                              threads.ranks[r].counters);
  }
  expect_counters_identical(serial.merged_counters(),
                            threads.merged_counters());

  // Byte-identical archived fields.
  const auto tree_serial = slurp_tree(dir_serial);
  const auto tree_threads = slurp_tree(dir_threads);
  ASSERT_FALSE(tree_serial.empty());
  ASSERT_EQ(tree_serial.size(), tree_threads.size());
  for (const auto& [name, bytes] : tree_serial) {
    auto it = tree_threads.find(name);
    ASSERT_NE(it, tree_threads.end()) << name;
    EXPECT_TRUE(bytes == it->second) << "archive file differs: " << name;
  }
  fs::remove_all(dir_serial);
  fs::remove_all(dir_threads);
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndVariants, BackendEquivalence,
    ::testing::Values(std::make_tuple("burgers", "acc_simd.async"),
                      std::make_tuple("burgers", "acc.sync"),
                      std::make_tuple("heat", "acc.async"),
                      std::make_tuple("advect", "acc_simd.async"),
                      std::make_tuple("advect", "host.sync")),
    [](const auto& param_info) {
      std::string name =
          std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
      for (char& c : name)
        if (c == '.') c = '_';
      return name;
    });

TEST(BackendEquivalencePolicies, EveryTilePolicyMatchesAcrossBackends) {
  // The dynamic assignment is planned in virtual time, never from
  // host thread interleaving — so even with a skewed per-tile cost and the
  // double-buffered DMA pipeline, serial and threads must stay
  // bit-identical in fields, virtual times, and counters per policy.
  for (const sched::TilePolicy policy :
       {sched::TilePolicy::kStaticZ, sched::TilePolicy::kDynamic}) {
    const auto run = [&](athread::Backend backend, const std::string& dir) {
      runtime::RunConfig config;
      config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
      config.variant = runtime::variant_by_name("acc_simd.async");
      config.backend = backend;
      config.backend_threads = 4;
      config.nranks = 2;
      config.timesteps = 4;
      config.cpe_groups = 2;
      config.async_dma = true;
      config.tile_policy = policy;
      config.output_dir = dir;
      config.output_interval = 2;
      apps::burgers::BurgersApp::Config bc;
      bc.tile_shape = {8, 8, 8};  // 8 tiles per patch, LDM-fitting doubled
      bc.hotspot_factor = 4.0;    // skew: policies assign differently
      return runtime::run_simulation(config, apps::burgers::BurgersApp(bc));
    };
    const std::string base = ::testing::TempDir() + "/usw_policy_eq_" +
                             sched::to_string(policy);
    const std::string dir_serial = base + "_serial";
    const std::string dir_threads = base + "_threads";
    fs::remove_all(dir_serial);
    fs::remove_all(dir_threads);
    const runtime::RunResult serial = run(athread::Backend::kSerial, dir_serial);
    const runtime::RunResult threads =
        run(athread::Backend::kThreads, dir_threads);

    ASSERT_EQ(serial.ranks.size(), threads.ranks.size());
    for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
      EXPECT_EQ(serial.ranks[r].step_walls, threads.ranks[r].step_walls)
          << sched::to_string(policy);
      EXPECT_EQ(serial.ranks[r].metrics, threads.ranks[r].metrics);
      expect_counters_identical(serial.ranks[r].counters,
                                threads.ranks[r].counters);
    }
    expect_counters_identical(serial.merged_counters(),
                              threads.merged_counters());
    const auto tree_serial = slurp_tree(dir_serial);
    const auto tree_threads = slurp_tree(dir_threads);
    ASSERT_FALSE(tree_serial.empty());
    ASSERT_EQ(tree_serial.size(), tree_threads.size());
    for (const auto& [name, bytes] : tree_serial) {
      auto it = tree_threads.find(name);
      ASSERT_NE(it, tree_threads.end()) << name;
      EXPECT_TRUE(bytes == it->second)
          << sched::to_string(policy) << " archive file differs: " << name;
    }
    fs::remove_all(dir_serial);
    fs::remove_all(dir_threads);
  }
}

// ---------------------------------------------------------------------------
// Fault injection must not break backend equivalence: every injection
// decision is a pure hash of stable identifiers, so serial and threads see
// the same faults, run the same recovery, and stay bit-identical — fields,
// virtual walls, and fault counters included.

class BackendEquivalenceFaults : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalenceFaults, InjectedRunsMatchAcrossBackends) {
  const int seed = GetParam();
  const auto run = [&](athread::Backend backend, const std::string& dir) {
    runtime::RunConfig config;
    config.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
    config.variant = runtime::variant_by_name("acc_simd.async");
    config.backend = backend;
    config.backend_threads = 4;
    config.nranks = 2;
    config.timesteps = 4;
    config.cpe_groups = 2;
    config.faults = fault::FaultPlan::parse(
        "cpe_stall:p=0.1:factor=6,offload_fail:p=0.1,dma_error:p=0.05,"
        "msg_delay:p=0.1:factor=12,msg_loss:p=0.1",
        static_cast<std::uint64_t>(seed));
    config.output_dir = dir;
    config.output_interval = 2;
    return runtime::run_simulation(config, apps::burgers::BurgersApp());
  };
  const std::string base =
      ::testing::TempDir() + "/usw_fault_eq_seed" + std::to_string(seed);
  const std::string dir_serial = base + "_serial";
  const std::string dir_threads = base + "_threads";
  fs::remove_all(dir_serial);
  fs::remove_all(dir_threads);

  const runtime::RunResult serial = run(athread::Backend::kSerial, dir_serial);
  const runtime::RunResult threads =
      run(athread::Backend::kThreads, dir_threads);

  // The plan must actually have fired, or this test proves nothing.
  EXPECT_GT(serial.merged_counters().fault_injected, 0u) << "seed " << seed;

  ASSERT_EQ(serial.ranks.size(), threads.ranks.size());
  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    EXPECT_EQ(serial.ranks[r].init_wall, threads.ranks[r].init_wall);
    EXPECT_EQ(serial.ranks[r].step_walls, threads.ranks[r].step_walls);
    EXPECT_EQ(serial.ranks[r].metrics, threads.ranks[r].metrics);
    expect_counters_identical(serial.ranks[r].counters,
                              threads.ranks[r].counters);
  }
  const auto tree_serial = slurp_tree(dir_serial);
  const auto tree_threads = slurp_tree(dir_threads);
  ASSERT_FALSE(tree_serial.empty());
  ASSERT_EQ(tree_serial.size(), tree_threads.size());
  for (const auto& [name, bytes] : tree_serial) {
    auto it = tree_threads.find(name);
    ASSERT_NE(it, tree_threads.end()) << name;
    EXPECT_TRUE(bytes == it->second) << "archive file differs: " << name;
  }
  fs::remove_all(dir_serial);
  fs::remove_all(dir_threads);
}

INSTANTIATE_TEST_SUITE_P(InjectionSeeds, BackendEquivalenceFaults,
                         ::testing::Values(1, 7, 42));

TEST(BackendTrace, SerialAndThreadsRecordIdenticalEvents) {
  // Kernel ends are recorded at the poll or join that observes them,
  // stamped with the group's completion time; under kThreads the workers
  // may still be running at spawn. The spans paired from the recorded
  // events must still agree, field for field and in order (equal begins
  // keep their recording order), and so must their names.
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 1, 1}, {8, 8, 8});
  config.variant = runtime::variant_by_name("acc.async");
  config.nranks = 2;
  config.timesteps = 3;
  config.collect_trace = true;

  config.backend = athread::Backend::kSerial;
  const runtime::RunResult serial =
      runtime::run_simulation(config, apps::burgers::BurgersApp());
  config.backend = athread::Backend::kThreads;
  config.backend_threads = 4;
  const runtime::RunResult threads =
      runtime::run_simulation(config, apps::burgers::BurgersApp());

  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    ASSERT_FALSE(serial.ranks[r].trace->empty());
    EXPECT_EQ(span_difference(*threads.ranks[r].trace, *serial.ranks[r].trace), "")
        << "rank " << r;
  }
}

}  // namespace
}  // namespace usw
