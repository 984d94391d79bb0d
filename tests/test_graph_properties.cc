// Property-based tests of distributed task-graph compilation: for randomly
// generated levels, partitions, and multi-task graphs, structural
// invariants must hold — global send/receive symmetry, tag uniqueness,
// exact halo coverage, and acyclicity of the internal dependency edges.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "support/rng.h"
#include "support/test_helpers.h"
#include "task/graph.h"

namespace usw::task {
namespace {

kern::KernelVariants dummy_kernel(int ghost) {
  kern::KernelVariants kv;
  kv.scalar = [](const kern::KernelEnv&, const kern::FieldView&,
                 const kern::FieldView&, const grid::Box&) {};
  kv.ghost = ghost;
  return kv;
}

const var::VarLabel* lbl(const std::string& name) {
  return var::VarLabel::create(name);
}

/// Builds a random but well-formed graph: a chain of stencil stages with
/// random ghost depths, optional boundary-style modifies tasks, and a
/// final reduction.
void build_random_graph(TaskGraph& graph, SplitMix64& rng, int trial) {
  const int stages = 1 + static_cast<int>(rng.next_u64() % 3);
  const std::string base = "pg" + std::to_string(trial) + "_";
  const var::VarLabel* prev = lbl(base + "v0");
  for (int s = 0; s < stages; ++s) {
    const var::VarLabel* next = lbl(base + "v" + std::to_string(s + 1));
    const int ghost = 1 + static_cast<int>(rng.next_u64() % 2);
    graph.add(Task::make_stencil(
        base + "stage" + std::to_string(s), prev, next, dummy_kernel(ghost),
        s == 0 ? WhichDW::kOld : WhichDW::kNew));
    if (rng.next_u64() % 2 == 0) {
      auto bc = Task::make_mpe(base + "bc" + std::to_string(s),
                               [](const TaskContext&, const grid::Patch&) {
                                 return TimePs{0};
                               });
      bc->add_modifies(next);
      graph.add(std::move(bc));
    }
    prev = next;
  }
  auto red = Task::make_reduction(
      base + "sum", lbl(base + "sum"), ReduceOp::kSum,
      [](const TaskContext&, const grid::Patch&) { return 0.0; });
  red->add_requires(prev, WhichDW::kNew, 0);
  graph.add(std::move(red));
}

struct CompiledWorld {
  grid::Level level;
  grid::Partition part;
  std::vector<CompiledGraph> per_rank;
};

CompiledWorld compile_world(const TaskGraph& graph, grid::IntVec layout,
                            grid::IntVec patch, int nranks,
                            grid::PartitionPolicy policy) {
  const grid::Level level(layout, patch);
  CompiledWorld w{
      level, grid::Partition(level, nranks, policy, test::equal_costs(level)), {}};
  for (int r = 0; r < nranks; ++r)
    w.per_rank.push_back(graph.compile(w.level, w.part, r));
  return w;
}

class GraphProperty : public ::testing::TestWithParam<int> {};

TEST_P(GraphProperty, InvariantsHoldForRandomConfigurations) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 6; ++trial) {
    TaskGraph graph;
    build_random_graph(graph, rng, GetParam() * 100 + trial);

    const grid::IntVec layout{1 + static_cast<int>(rng.next_u64() % 4),
                              1 + static_cast<int>(rng.next_u64() % 3),
                              1 + static_cast<int>(rng.next_u64() % 3)};
    const grid::IntVec patch{4 + 4 * static_cast<int>(rng.next_u64() % 2),
                             4 + 4 * static_cast<int>(rng.next_u64() % 2), 8};
    const int npatches = static_cast<int>(layout.volume());
    const int nranks =
        1 + static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(npatches));
    const auto policy = rng.next_u64() % 2 == 0 ? grid::PartitionPolicy::kBlock
                                                : grid::PartitionPolicy::kRoundRobin;
    const CompiledWorld w =
        compile_world(graph, layout, patch, nranks, policy);

    // 1. Send/receive symmetry: identical multisets of
    //    (src, dst, tag, bytes) on both sides, and tags unique per receiver.
    std::multiset<std::tuple<int, int, int, std::uint64_t>> sends, recvs;
    std::set<std::pair<int, int>> tags_seen;
    for (int r = 0; r < nranks; ++r) {
      auto note = [&sends, &tags_seen, r](const ExtComm& sc) {
        sends.insert({r, sc.peer_rank, sc.tag(2), sc.bytes()});
        EXPECT_TRUE(tags_seen.insert({sc.peer_rank, sc.tag(2)}).second);
      };
      for (const auto& sc : w.per_rank[static_cast<std::size_t>(r)].initial_sends)
        note(sc);
      for (const auto& dt : w.per_rank[static_cast<std::size_t>(r)].tasks) {
        for (const auto& sc : dt.sends) note(sc);
        for (const auto& rc : dt.recvs)
          recvs.insert({rc.peer_rank, r, rc.tag(2), rc.bytes()});
      }
    }
    ASSERT_EQ(sends, recvs) << "layout " << layout.to_string() << " ranks "
                            << nranks;

    // 2. Halo coverage: for every detailed task with a ghosted requirement,
    //    recv regions + local copies exactly tile the needed halo.
    for (int r = 0; r < nranks; ++r) {
      for (const auto& dt : w.per_rank[static_cast<std::size_t>(r)].tasks) {
        for (const Requires& req : dt.task->requires_list()) {
          if (req.ghost == 0) continue;
          std::int64_t covered = 0;
          for (const auto& rc : dt.recvs)
            if (rc.label == req.label && rc.dw == req.dw)
              covered += rc.region.volume();
          for (const auto& lc : dt.local_copies)
            if (lc.label == req.label && lc.dw == req.dw)
              covered += lc.region.volume();
          std::int64_t needed = 0;
          for (const auto& dep : var::ghost_requirements(
                   w.level, w.level.patch(dt.patch_id), req.ghost))
            needed += dep.region.volume();
          EXPECT_EQ(covered, needed)
              << dt.task->name() << " patch " << dt.patch_id;
        }
      }
    }

    // 3. Acyclicity: successor edges always point forward in compiled
    //    order (the compiler emits tasks topologically).
    for (int r = 0; r < nranks; ++r) {
      const auto& tasks = w.per_rank[static_cast<std::size_t>(r)].tasks;
      for (std::size_t i = 0; i < tasks.size(); ++i)
        for (int succ : tasks[i].successors)
          EXPECT_GT(succ, static_cast<int>(i));
    }

    // 4. Predecessor counts match the edge lists.
    for (int r = 0; r < nranks; ++r) {
      const auto& tasks = w.per_rank[static_cast<std::size_t>(r)].tasks;
      std::vector<int> preds(tasks.size(), 0);
      for (const auto& dt : tasks)
        for (int succ : dt.successors) preds[static_cast<std::size_t>(succ)]++;
      for (std::size_t i = 0; i < tasks.size(); ++i)
        EXPECT_EQ(preds[i], tasks[i].num_internal_preds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace usw::task
