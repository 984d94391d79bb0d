// Tests for the opt-in access checker (src/check): every violation class
// fires on a deliberately malformed graph, and validation is off by
// default. Every run of test_contracts.cc validates, so the real
// applications validate clean in every scheduler mode there.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "check/check.h"
#include "check/comm_lint.h"
#include "check/tile_check.h"
#include "comm/comm.h"
#include "grid/partition.h"
#include "runtime/controller.h"
#include "sched/tile_exec.h"
#include "sim/coordinator.h"
#include "support/error.h"

namespace usw::check {
namespace {

const var::VarLabel* L(const char* name) { return var::VarLabel::create(name); }

std::size_t count_kind(const std::vector<Violation>& vs, ViolationKind kind) {
  std::size_t n = 0;
  for (const Violation& v : vs) n += (v.kind == kind) ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// End-to-end detection through run_simulation: applications whose MPE-task
// bodies touch the warehouses outside their declarations.
// ---------------------------------------------------------------------------

/// Base for the malformed test apps: initialization computes `u` and `aux`
/// so both are present in the old warehouse of the first timestep.
class MalformedAppBase : public runtime::Application {
 public:
  std::string name() const override { return "check-test"; }
  double fixed_dt(const grid::Level&) const override { return 1e-3; }
  void on_rank_complete(const task::TaskContext&, comm::Comm&, std::span<const int>,
                        std::map<std::string, double>&) const override {}

  void build_init_graph(task::TaskGraph& graph,
                        const grid::Level&) const override {
    task::Task& t = graph.add(task::Task::make_mpe(
        "init", [](const task::TaskContext& ctx, const grid::Patch& patch) {
          if (ctx.functional) {
            ctx.new_dw->get_writable(L("u"), patch.id());
            ctx.new_dw->get_writable(L("aux"), patch.id());
          }
          return TimePs{0};
        }));
    t.add_computes(L("u"));
    t.add_computes(L("aux"));
  }
};

/// Step task reads old-DW `aux` without declaring a Requires for it.
class UndeclaredReadApp final : public MalformedAppBase {
 public:
  void build_step_graph(task::TaskGraph& graph,
                        const grid::Level&) const override {
    task::Task& t = graph.add(task::Task::make_mpe(
        "leaky_reader",
        [](const task::TaskContext& ctx, const grid::Patch& patch) {
          if (ctx.functional) {
            ctx.old_dw->get(L("u"), patch.id());    // declared: fine
            ctx.old_dw->get(L("aux"), patch.id());  // undeclared read
            ctx.new_dw->get_writable(L("u"), patch.id());
          }
          return TimePs{0};
        }));
    t.add_requires(L("u"), task::WhichDW::kOld, 0);
    t.add_computes(L("u"));
  }
};

/// Step task writes new-DW `w` (another task's output) and the old DW,
/// neither covered by its Computes/Modifies.
class UndeclaredWriteApp final : public MalformedAppBase {
 public:
  void build_step_graph(task::TaskGraph& graph,
                        const grid::Level&) const override {
    task::Task& producer = graph.add(task::Task::make_mpe(
        "producer", [](const task::TaskContext& ctx, const grid::Patch& patch) {
          if (ctx.functional) ctx.new_dw->get_writable(L("w"), patch.id());
          return TimePs{0};
        }));
    producer.add_computes(L("w"));

    task::Task& sneaky = graph.add(task::Task::make_mpe(
        "sneaky_writer",
        [](const task::TaskContext& ctx, const grid::Patch& patch) {
          if (ctx.functional) {
            ctx.new_dw->get_writable(L("w"), patch.id());  // not declared
            ctx.old_dw->get_writable(L("u"), patch.id());  // old DW is read-only
            ctx.new_dw->get_writable(L("u"), patch.id());  // declared: fine
          }
          return TimePs{0};
        }));
    sneaky.add_requires(L("u"), task::WhichDW::kOld, 0);
    sneaky.add_requires(L("w"), task::WhichDW::kNew, 0);
    sneaky.add_computes(L("u"));
  }
};

runtime::RunResult run_malformed(const runtime::Application& app) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {4, 4, 4});
  cfg.variant = runtime::variant_by_name("host.sync");
  cfg.nranks = 2;
  cfg.timesteps = 1;
  cfg.check.enabled = true;
  return runtime::run_simulation(cfg, app);
}

TEST(CheckDetect, UndeclaredReadIsFlagged) {
  const runtime::RunResult result = run_malformed(UndeclaredReadApp{});
  const std::vector<Violation> vs = result.all_violations();
  EXPECT_GE(count_kind(vs, ViolationKind::kUndeclaredRead), 1u);
  bool found = false;
  for (const Violation& v : vs)
    if (v.kind == ViolationKind::kUndeclaredRead && v.label == "aux" &&
        v.task == "leaky_reader")
      found = true;
  EXPECT_TRUE(found) << "expected an undeclared-read of 'aux' by 'leaky_reader'";
  // Only 'aux' is mis-declared; the declared accesses must not be flagged.
  for (const Violation& v : vs) EXPECT_NE(v.label, "u") << v.to_string();
}

TEST(CheckDetect, UndeclaredWriteIsFlagged) {
  const runtime::RunResult result = run_malformed(UndeclaredWriteApp{});
  const std::vector<Violation> vs = result.all_violations();
  // Both the new-DW write of 'w' and the old-DW write of 'u' are flagged
  // (dedup is per (kind, task, label, patch), so at least one of each pair
  // of labels survives per rank).
  bool new_dw_write = false, old_dw_write = false;
  for (const Violation& v : vs) {
    if (v.kind != ViolationKind::kUndeclaredWrite) continue;
    if (v.task == "sneaky_writer" && v.label == "w") new_dw_write = true;
    if (v.task == "sneaky_writer" && v.label == "u") old_dw_write = true;
  }
  EXPECT_TRUE(new_dw_write) << "undeclared new-DW write of 'w' not flagged";
  EXPECT_TRUE(old_dw_write) << "old-DW write of 'u' not flagged";
}

// ---------------------------------------------------------------------------
// Unit-level: checker methods against a directly compiled graph.
// ---------------------------------------------------------------------------

struct CompiledFixture {
  grid::Level level{{2, 1, 1}, {8, 8, 8}};
  task::TaskGraph graph;
  grid::Partition part{level, 1, grid::PartitionPolicy::kBlock,
                       std::vector<double>(2, 1.0)};
  task::CompiledGraph cg;

  /// Adds an MPE task named `name` with a no-op body.
  task::Task& add_task(const std::string& name) {
    return graph.add(task::Task::make_mpe(
        name, [](const task::TaskContext&, const grid::Patch&) {
          return TimePs{0};
        }));
  }
  void compile() {
    cg = graph.compile(level, part, 0);
  }
  /// Detailed-task index of (task name, patch); -1 if absent.
  int dt_of(const std::string& name, int patch_id) const {
    for (std::size_t i = 0; i < cg.tasks.size(); ++i)
      if (cg.tasks[i].task->name() == name && cg.tasks[i].patch_id == patch_id)
        return static_cast<int>(i);
    return -1;
  }
};

TEST(CheckUnit, InsufficientGhostOnStencilRead) {
  CompiledFixture f;
  task::Task& t = f.add_task("consume");
  t.add_requires(L("cu"), task::WhichDW::kOld, 1);
  t.add_computes(L("cu"));
  f.compile();
  AccessChecker checker(f.level, f.cg);

  const int dt = f.dt_of("consume", 0);
  ASSERT_GE(dt, 0);
  // Reading at the declared depth is fine; one layer beyond is not.
  checker.record_stencil_read(dt, L("cu"), task::WhichDW::kOld,
                              f.level.patch(0).ghosted(1));
  EXPECT_TRUE(checker.take_violations().empty());
  checker.record_stencil_read(dt, L("cu"), task::WhichDW::kOld,
                              f.level.patch(0).ghosted(2));
  const std::vector<Violation> too_deep = checker.take_violations();
  ASSERT_EQ(too_deep.size(), 1u);
  EXPECT_EQ(too_deep[0].kind, ViolationKind::kInsufficientGhost);

  // A stencil read of a never-declared label is an undeclared read.
  checker.record_stencil_read(dt, L("cv"), task::WhichDW::kOld,
                              f.level.patch(0).cells());
  EXPECT_EQ(count_kind(checker.take_violations(), ViolationKind::kUndeclaredRead),
            1u);
}

TEST(CheckUnit, ConcurrentWriteOverlapBetweenUnorderedTasks) {
  CompiledFixture f;
  f.add_task("writer_a").add_computes(L("ca"));
  f.add_task("writer_b").add_computes(L("cb"));
  f.compile();
  AccessChecker checker(f.level, f.cg);

  const int a = f.dt_of("writer_a", 0);
  const int b = f.dt_of("writer_b", 0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // No declaration links the two tasks, so they are concurrently
  // schedulable; both writing (part of) 'ca' on patch 0 is a race.
  const grid::Box cells = f.level.patch(0).cells();
  checker.record_write(a, L("ca"), cells);
  checker.record_write(b, L("ca"), cells);
  const std::vector<Violation> vs = checker.take_violations();
  EXPECT_EQ(count_kind(vs, ViolationKind::kConcurrentWriteOverlap), 1u);
  // writer_b also never declared a write of 'ca' at all.
  EXPECT_EQ(count_kind(vs, ViolationKind::kUndeclaredWrite), 1u);
}

TEST(CheckUnit, OrderedTasksMayWriteTheSameRegion) {
  CompiledFixture f;
  f.add_task("first").add_computes(L("cd"));
  task::Task& second = f.add_task("second");
  second.add_requires(L("cd"), task::WhichDW::kNew, 0);
  second.add_modifies(L("cd"));
  f.compile();
  AccessChecker checker(f.level, f.cg);

  const int a = f.dt_of("first", 0);
  const int b = f.dt_of("second", 0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  const grid::Box cells = f.level.patch(0).cells();
  checker.record_write(a, L("cd"), cells);
  checker.record_write(b, L("cd"), cells);
  // 'second' modifies after 'first' computes: ordered, declared, clean.
  EXPECT_TRUE(checker.take_violations().empty());
}

TEST(CheckUnit, DuplicateViolationsAreReportedOnce) {
  CompiledFixture f;
  task::Task& t = f.add_task("consume");
  t.add_requires(L("ce"), task::WhichDW::kOld, 0);
  t.add_computes(L("ce"));
  f.compile();
  AccessChecker checker(f.level, f.cg);
  const int dt = f.dt_of("consume", 0);
  for (int i = 0; i < 3; ++i)
    checker.record_stencil_read(dt, L("cf"), task::WhichDW::kOld,
                                f.level.patch(0).cells());
  EXPECT_EQ(checker.take_violations().size(), 1u);
}

// ---------------------------------------------------------------------------
// Tile-partition race detector.
// ---------------------------------------------------------------------------

TEST(CheckTiles, OverlappingTilesAreARace) {
  const grid::Box patch({0, 0, 0}, {8, 8, 8});
  const std::vector<std::pair<int, grid::Box>> tiles = {
      {0, grid::Box({0, 0, 0}, {8, 8, 5})},
      {1, grid::Box({0, 0, 4}, {8, 8, 8})},  // overlaps z=4 with tile 0
  };
  const std::vector<Violation> vs = check_tile_partition(patch, tiles, "t");
  EXPECT_EQ(count_kind(vs, ViolationKind::kTileOverlap), 1u);
}

TEST(CheckTiles, CoverageHoleIsFlagged) {
  const grid::Box patch({0, 0, 0}, {8, 8, 8});
  const std::vector<std::pair<int, grid::Box>> tiles = {
      {0, grid::Box({0, 0, 0}, {8, 8, 3})},
      {1, grid::Box({0, 0, 5}, {8, 8, 8})},  // z in [3,5) is nobody's
  };
  const std::vector<Violation> vs = check_tile_partition(patch, tiles, "t");
  EXPECT_GE(count_kind(vs, ViolationKind::kTileCoverage), 1u);
}

TEST(CheckTiles, TileOutsidePatchIsFlagged) {
  const grid::Box patch({0, 0, 0}, {8, 8, 8});
  const std::vector<std::pair<int, grid::Box>> tiles = {
      {0, grid::Box({0, 0, 0}, {8, 8, 9})},  // sticks out of the patch
  };
  const std::vector<Violation> vs = check_tile_partition(patch, tiles, "t");
  EXPECT_GE(count_kind(vs, ViolationKind::kTileCoverage), 1u);
}

TEST(CheckTiles, RealTilingIsAnExactPartition) {
  // The production tile assignment must pass its own race detector for
  // every shape the apps use (including non-dividing remainders) under
  // every tile policy: tile_writes() reports the assignment actually
  // executed, so dynamic plans are validated as-is rather than
  // re-derived from the static z-partition.
  for (const grid::IntVec shape :
       {grid::IntVec{8, 8, 1}, grid::IntVec{16, 4, 2}, grid::IntVec{5, 7, 3}}) {
    const grid::Box patch({0, 0, 0}, {12, 12, 12});
    const grid::Tiling tiling(patch, shape);
    for (const sched::TilePolicy policy :
         {sched::TilePolicy::kStaticZ, sched::TilePolicy::kDynamic}) {
      const sched::TileAssignment plan = sched::assign_tiles(
          tiling, 64, policy, [](int) { return TimePs{1000}; },
          TimePs{100});
      const auto tiles = sched::tile_writes(tiling, plan);
      EXPECT_TRUE(check_tile_partition(patch, tiles, "t").empty())
          << shape.to_string() << " " << sched::to_string(policy);
    }
  }
}

// ---------------------------------------------------------------------------
// Communication lint.
// ---------------------------------------------------------------------------

TEST(CheckComm, AmbiguousTagsAreFlagged) {
  // Hand-built graph: two receives of one detailed task share
  // (peer, tag_base) — they would match arriving messages ambiguously.
  const auto holder = task::Task::make_mpe(
      "recv_task",
      [](const task::TaskContext&, const grid::Patch&) { return TimePs{0}; });
  task::ExtComm rc;
  rc.peer_rank = 1;
  rc.tag_base = 42;
  rc.label = L("u");
  rc.from_patch = 1;
  rc.to_patch = 0;
  rc.region = grid::Box({-1, 0, 0}, {0, 8, 8});

  task::CompiledGraph cg;
  task::DetailedTask dt;
  dt.task = holder.get();
  dt.patch_id = 0;
  dt.recvs = {rc, rc};
  cg.tasks.push_back(std::move(dt));

  const std::vector<Violation> vs = lint_compiled_graph(cg, 0);
  EXPECT_EQ(count_kind(vs, ViolationKind::kTagAmbiguity), 1u);
}

TEST(CheckComm, RealCompiledGraphLintsClean) {
  const grid::Level level({2, 2, 1}, {8, 8, 8});
  std::vector<double> costs(static_cast<std::size_t>(level.num_patches()), 1.0);
  const grid::Partition part(level, 2, grid::PartitionPolicy::kBlock, costs);
  task::TaskGraph graph;
  apps::burgers::BurgersApp().build_step_graph(graph, level);
  for (int rank = 0; rank < 2; ++rank) {
    const task::CompiledGraph cg = graph.compile(level, part, rank);
    EXPECT_TRUE(lint_compiled_graph(cg, rank).empty()) << "rank " << rank;
  }
}

TEST(CheckComm, OrphanedMessageFoundAtShutdown) {
  const hw::CostModel cost(hw::MachineParams::sunway_taihulight());
  comm::Network net(2, cost);
  sim::run_ranks(2, [&](sim::Coordinator& coord, int rank) {
    comm::Comm comm(net, coord, rank);
    // Rank 0 sends; rank 1 never posts the matching receive.
    if (rank == 0) comm.isend_bytes(1, 99, 64);
  });
  const std::vector<Violation> vs = lint_network_shutdown(net);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, ViolationKind::kOrphanMessage);
  EXPECT_NE(vs[0].detail.find("tag 99"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Validation is opt-in.
// ---------------------------------------------------------------------------

TEST(CheckClean, ValidationIsOffByDefault) {
  const runtime::RunConfig cfg;
  EXPECT_FALSE(cfg.check.enabled);
  // And a default run must not install any observer machinery: the result
  // carries no violations vector content.
  runtime::RunConfig run_cfg;
  run_cfg.problem = runtime::tiny_problem({2, 1, 1}, {4, 4, 4});
  run_cfg.variant = runtime::variant_by_name("host.sync");
  run_cfg.nranks = 1;
  run_cfg.timesteps = 1;
  const runtime::RunResult result =
      runtime::run_simulation(run_cfg, apps::burgers::BurgersApp{});
  EXPECT_TRUE(result.all_violations().empty());
}

}  // namespace
}  // namespace usw::check
