// Tests for task declarations and distributed task-graph compilation:
// dependency edges, message symmetry across ranks, tag uniqueness, and
// malformed-graph diagnostics.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "support/test_helpers.h"
#include "task/graph.h"

namespace usw::task {
namespace {

kern::KernelVariants dummy_kernel(int ghost = 1) {
  kern::KernelVariants kv;
  kv.scalar = [](const kern::KernelEnv&, const kern::FieldView&,
                 const kern::FieldView&, const grid::Box&) {};
  kv.ghost = ghost;
  return kv;
}

const var::VarLabel* lbl(const std::string& name) {
  return var::VarLabel::create(name);
}

TEST(Task, StencilDeclaresItsDependencies) {
  auto t = Task::make_stencil("s", lbl("tg_u"), lbl("tg_u"), dummy_kernel());
  EXPECT_EQ(t->type(), Task::Type::kStencil);
  ASSERT_EQ(t->requires_list().size(), 1u);
  EXPECT_EQ(t->requires_list()[0].label, lbl("tg_u"));
  EXPECT_EQ(t->requires_list()[0].dw, WhichDW::kOld);
  EXPECT_EQ(t->requires_list()[0].ghost, 1);
  ASSERT_EQ(t->computes_list().size(), 1u);
  EXPECT_EQ(t->computes_list()[0].label, lbl("tg_u"));
}

TEST(Task, AccessorsGuardTaskType) {
  auto t = Task::make_mpe("m", [](const TaskContext&, const grid::Patch&) {
    return TimePs{0};
  });
  EXPECT_DEATH(t->kernel(), "non-stencil");
  EXPECT_DEATH(t->reduction_local(), "non-reduction");
}

class GraphFixture : public ::testing::Test {
 protected:
  GraphFixture() : level_({4, 2, 1}, {8, 8, 8}) {
    graph_.add(Task::make_stencil("advance", lbl("tg2_u"), lbl("tg2_u"),
                                  dummy_kernel()));
    auto red = Task::make_reduction(
        "norm", lbl("tg2_norm"), ReduceOp::kSum,
        [](const TaskContext&, const grid::Patch&) { return 1.0; });
    red->add_requires(lbl("tg2_u"), WhichDW::kNew, 0);
    graph_.add(std::move(red));
  }

  grid::Level level_;
  TaskGraph graph_;
};

TEST_F(GraphFixture, SingleRankHasNoMessages) {
  const grid::Partition part(level_, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level_));
  const CompiledGraph cg = graph_.compile(level_, part, 0);
  EXPECT_EQ(cg.tasks.size(), 16u);  // 2 tasks x 8 patches
  EXPECT_TRUE(cg.initial_sends.empty());
  // Interior ghost data still moves via local copies.
  std::size_t copies = 0;
  for (const auto& dt : cg.tasks) {
    EXPECT_TRUE(dt.recvs.empty());
    EXPECT_TRUE(dt.sends.empty());
    copies += dt.local_copies.size();
  }
  EXPECT_GT(copies, 0u);
}

TEST_F(GraphFixture, ReductionDependsOnProducerPerPatch) {
  const grid::Partition part(level_, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level_));
  const CompiledGraph cg = graph_.compile(level_, part, 0);
  ASSERT_EQ(cg.reductions.size(), 1u);
  EXPECT_EQ(cg.reductions[0].num_local_parts, 8);
  // Each reduction detailed task has exactly one internal predecessor: the
  // stencil on the same patch.
  for (const auto& dt : cg.tasks) {
    if (dt.task->type() == Task::Type::kReduction) {
      EXPECT_EQ(dt.num_internal_preds, 1);
    }
  }
}

TEST_F(GraphFixture, OutputsCarryConsumerGhostDepth) {
  const grid::Partition part(level_, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level_));
  const CompiledGraph cg = graph_.compile(level_, part, 0);
  ASSERT_EQ(cg.outputs.size(), 8u);  // u on every patch
  for (const auto& oa : cg.outputs) {
    EXPECT_EQ(oa.label, lbl("tg2_u"));
    EXPECT_EQ(oa.ghost, 1);  // the stencil requires 1 ghost layer next step
  }
  EXPECT_EQ(graph_.ghost_alloc_depth(lbl("tg2_u")), 1);
  EXPECT_EQ(graph_.ghost_alloc_depth(lbl("tg2_norm")), 0);
}

TEST_F(GraphFixture, MessagesAreSymmetricAcrossRanks) {
  // Over all ranks, every receive must have exactly one matching send with
  // the same (src rank, dst rank, tag, bytes), and vice versa.
  const int nranks = 4;
  const grid::Partition part(level_, nranks, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level_));
  std::multiset<std::tuple<int, int, int, std::uint64_t>> sends, recvs;
  for (int r = 0; r < nranks; ++r) {
    const CompiledGraph cg = graph_.compile(level_, part, r);
    auto note_send = [&sends, r](const ExtComm& sc) {
      sends.insert({r, sc.peer_rank, sc.tag(0), sc.bytes()});
    };
    for (const auto& sc : cg.initial_sends) note_send(sc);
    for (const auto& dt : cg.tasks) {
      for (const auto& sc : dt.sends) note_send(sc);
      for (const auto& rc : dt.recvs)
        recvs.insert({rc.peer_rank, r, rc.tag(0), rc.bytes()});
    }
  }
  EXPECT_FALSE(sends.empty());
  EXPECT_EQ(sends, recvs);
}

TEST_F(GraphFixture, TagsAreUniquePerStepAndDifferAcrossSteps) {
  const int nranks = 4;
  const grid::Partition part(level_, nranks, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level_));
  std::set<std::pair<int, int>> seen;  // (dst, tag)
  for (int r = 0; r < nranks; ++r) {
    const CompiledGraph cg = graph_.compile(level_, part, r);
    auto check = [&seen](const ExtComm& sc) {
      EXPECT_TRUE(seen.insert({sc.peer_rank, sc.tag(3)}).second)
          << "duplicate tag " << sc.tag(3);
      EXPECT_NE(sc.tag(3), sc.tag(4));
      EXPECT_LT(sc.tag(15), 1 << 30);  // below the collective tag space
      EXPECT_GE(sc.tag(0), 0);
    };
    for (const auto& sc : cg.initial_sends) check(sc);
    for (const auto& dt : cg.tasks)
      for (const auto& sc : dt.sends) check(sc);
  }
}

TEST_F(GraphFixture, RemoteRecvCountMatchesBoundaryFaces) {
  // The partitioner splits the 4x2x1 layout over 4 ranks as a 2x2x1 rank
  // grid (2x1x1 patches per rank). Rank 1 owns layout (2,0,0) and (3,0,0):
  // patch (2,0,0) has remote x- and y-neighbors, patch (3,0,0) a remote
  // y-neighbor — 3 receives, and by symmetry 3 initial sends.
  const grid::Partition part(level_, 4, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level_));
  ASSERT_EQ(grid::Partition::choose_rank_grid(level_.layout(), 4),
            (grid::IntVec{2, 2, 1}));
  const CompiledGraph cg = graph_.compile(level_, part, 1);
  std::size_t recvs = 0;
  for (const auto& dt : cg.tasks) recvs += dt.recvs.size();
  EXPECT_EQ(recvs, 3u);
  EXPECT_EQ(cg.initial_sends.size(), 3u);
}

TEST(TaskGraph, EmptyGraphRejected) {
  TaskGraph g;
  const grid::Level level({2, 1, 1}, {4, 4, 4});
  const grid::Partition part(level, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level));
  EXPECT_THROW(g.compile(level, part, 0), ConfigError);
}

TEST(TaskGraph, DuplicateProducerRejected) {
  TaskGraph g;
  g.add(Task::make_stencil("a", lbl("tg3_u"), lbl("tg3_v"), dummy_kernel()));
  g.add(Task::make_stencil("b", lbl("tg3_u"), lbl("tg3_v"), dummy_kernel()));
  const grid::Level level({2, 1, 1}, {4, 4, 4});
  const grid::Partition part(level, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level));
  EXPECT_THROW(g.compile(level, part, 0), ConfigError);
}

TEST(TaskGraph, MissingProducerRejected) {
  TaskGraph g;
  auto t = Task::make_mpe("needs", [](const TaskContext&, const grid::Patch&) {
    return TimePs{0};
  });
  t->add_requires(lbl("tg4_never_computed"), WhichDW::kNew, 0);
  g.add(std::move(t));
  const grid::Level level({2, 1, 1}, {4, 4, 4});
  const grid::Partition part(level, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level));
  EXPECT_THROW(g.compile(level, part, 0), ConfigError);
}

TEST(TaskGraph, ConsumerBeforeProducerRejected) {
  TaskGraph g;
  auto consumer = Task::make_mpe("early", [](const TaskContext&, const grid::Patch&) {
    return TimePs{0};
  });
  consumer->add_requires(lbl("tg5_u"), WhichDW::kNew, 0);
  g.add(std::move(consumer));
  g.add(Task::make_stencil("late", lbl("tg5_u"), lbl("tg5_u"), dummy_kernel()));
  const grid::Level level({2, 1, 1}, {4, 4, 4});
  const grid::Partition part(level, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level));
  EXPECT_THROW(g.compile(level, part, 0), ConfigError);
}

TEST(TaskGraph, NewDwGhostCreatesNeighborEdges) {
  // A consumer needing new-DW data with ghosts depends on the producer on
  // the neighboring patches too.
  TaskGraph g;
  g.add(Task::make_stencil("produce", lbl("tg6_u"), lbl("tg6_u"), dummy_kernel()));
  auto consumer = Task::make_mpe("smooth", [](const TaskContext&, const grid::Patch&) {
    return TimePs{0};
  });
  consumer->add_requires(lbl("tg6_u"), WhichDW::kNew, 1);
  g.add(std::move(consumer));
  const grid::Level level({3, 1, 1}, {4, 4, 4});
  const grid::Partition part(level, 1, grid::PartitionPolicy::kBlock,
                             test::equal_costs(level));
  const CompiledGraph cg = g.compile(level, part, 0);
  // The middle consumer (patch 1) depends on producers at patches 0,1,2.
  int preds_of_middle = -1;
  for (const auto& dt : cg.tasks)
    if (dt.task->name() == "smooth" && dt.patch_id == 1)
      preds_of_middle = dt.num_internal_preds;
  EXPECT_EQ(preds_of_middle, 3);
}

}  // namespace
}  // namespace usw::task
