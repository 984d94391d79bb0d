// The simulator's bit-equality contracts, as one table. Each row is one
// contract: planes of the same cells that must agree on the parts of a run
// the contract fixes. Faults perturb virtual time and control flow but not
// the answer; a restart, from an archive or on a blown step deadline,
// continues the straight-through run; a replay reproduces its recording; a
// fuzzed schedule changes the interleaving but not the answer, and each
// seed explores its own; plans cached per task run like plans built per
// offload; timing-only storage charges the virtual times functional
// storage does; observing a run (trace, metrics, flight rings, watchdog)
// changes nothing about it; and a run repeats itself exactly.
//
// Every run validates (src/check) and must come out clean. Once the planes
// agree, each row checks predicates on them, so that a plane that silently
// did nothing (no fault fired, no decision was fuzzed) cannot pass.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/advect/advect_app.h"
#include "apps/burgers/burgers_app.h"
#include "apps/heat/heat_app.h"
#include "fault/fault.h"
#include "runtime/controller.h"
#include "support/test_helpers.h"

namespace usw {
namespace {

namespace fs = std::filesystem;
using sched::TilePolicy;
using schedpt::PointKind;
using test::slurp;
using test::slurp_tree;
using test::total_points;

/// One configuration that every plane of a row runs.
struct Cell {
  std::string app = "burgers";  ///< burgers, heat or advect
  std::string variant = "acc_simd.async";
  grid::IntVec layout{2, 2, 1};
  grid::IntVec patch{8, 8, 8};
  int ranks = 2;
  int steps = 3;
  int cpe_groups = 1;
  TilePolicy tiles = TilePolicy::kStaticZ;
  bool async_dma = false;
  var::StorageMode storage = var::StorageMode::kFunctional;
  /// Archive the fields every this many steps (0: no archive).
  int archive_every = 0;
  /// The fault plan every plane but a clean one injects, and its seed.
  /// The seed is also the first fuzz seed of the schedule rows.
  std::string faults{};
  std::uint64_t seed = 1;
  /// The deadline restart row's step deadline; 0 puts it just above the
  /// clean run's slowest step.
  TimePs step_deadline = 0;
  int heat_stages = 1;
  grid::IntVec burgers_tile{16, 16, 8};
  double burgers_hotspot = 1.0;
};

std::ostream& operator<<(std::ostream& os, const Cell& c) {
  os << c.app << (c.app == "heat" ? " stages=" + std::to_string(c.heat_stages) : "")
     << " " << c.variant << " " << c.layout.to_string() << " of " << c.patch.to_string()
     << ", " << c.ranks << " ranks, " << c.steps << " steps, " << c.cpe_groups
     << " groups, " << sched::to_string(c.tiles) << " tiles"
     << (c.async_dma ? ", async DMA" : "")
     << (c.storage == var::StorageMode::kTimingOnly ? ", timing-only" : "");
  if (c.app == "burgers")
    os << ", tiles of " << c.burgers_tile.to_string() << ", hotspot " << c.burgers_hotspot;
  if (!c.faults.empty()) os << ", faults " << c.faults << " seed " << c.seed;
  return os;
}

std::unique_ptr<runtime::Application> app_of(const Cell& c) {
  if (c.app == "heat") {
    apps::heat::HeatApp::Config config;
    config.stages = c.heat_stages;
    return std::make_unique<apps::heat::HeatApp>(config);
  }
  if (c.app == "advect") return std::make_unique<apps::advect::AdvectApp>();
  apps::burgers::BurgersApp::Config config;
  config.tile_shape = c.burgers_tile;
  config.hotspot_factor = c.burgers_hotspot;
  return std::make_unique<apps::burgers::BurgersApp>(config);
}

/// A run and the files it wrote.
struct Digest {
  runtime::RunResult run;
  std::map<std::string, std::string> archive;  ///< relative path -> bytes
  std::string schedule;                        ///< the schedule file written
};

using Edit = std::function<void(runtime::RunConfig&)>;

/// Runs `cell` once, with `edit` applied to its configuration, and digests
/// it. The archive, if the cell keeps one, goes to `dir`/archive.
Digest run(const Cell& c, const std::string& dir, const Edit& edit = {}) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem(c.layout, c.patch);
  config.variant = runtime::variant_by_name(c.variant);
  config.nranks = c.ranks;
  config.timesteps = c.steps;
  config.cpe_groups = c.cpe_groups;
  config.tile_policy = c.tiles;
  config.async_dma = c.async_dma;
  config.storage = c.storage;
  config.faults = fault::FaultPlan::parse(c.faults, c.seed);
  config.check.enabled = true;
  if (c.archive_every > 0) {
    config.output_dir = dir + "/archive";
    config.output_interval = c.archive_every;
  }
  if (edit) edit(config);

  Digest d;
  d.run = runtime::run_simulation(config, *app_of(c));
  for (const check::Violation& v : d.run.all_violations())
    ADD_FAILURE() << "violation: " << v.to_string();
  if (!config.output_dir.empty()) {
    d.archive = slurp_tree(config.output_dir);
    EXPECT_FALSE(d.archive.empty()) << "nothing archived";
  }
  if (config.schedule.mode != schedpt::Mode::kReplay && !config.schedule.file.empty())
    d.schedule = slurp(config.schedule.file);
  return d;
}

// ---------------------------------------------------------------------------
// What a contract fixes.

/// Every PerfCounters field by name, as a double. Each count and
/// picosecond total these cells reach is far below 2^53, so the
/// conversion is exact and counted_flops compares bitwise.
std::map<std::string, double> counter_fields(const hw::PerfCounters& c) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  return {{"counted_flops", c.counted_flops},
          {"cells_computed", d(c.cells_computed)},
          {"tiles_executed", d(c.tiles_executed)},
          {"tile_grabs", d(c.tile_grabs)},
          {"kernels_offloaded", d(c.kernels_offloaded)},
          {"kernels_on_mpe", d(c.kernels_on_mpe)},
          {"dma_bytes_in", d(c.dma_bytes_in)},
          {"dma_bytes_out", d(c.dma_bytes_out)},
          {"pack_bytes", d(c.pack_bytes)},
          {"messages_sent", d(c.messages_sent)},
          {"messages_received", d(c.messages_received)},
          {"bytes_sent", d(c.bytes_sent)},
          {"bytes_received", d(c.bytes_received)},
          {"reductions", d(c.reductions)},
          {"mpi_posts", d(c.mpi_posts)},
          {"fault_injected", d(c.fault_injected)},
          {"fault_retries", d(c.fault_retries)},
          {"fault_degraded", d(c.fault_degraded)},
          {"fault_restarts", d(c.fault_restarts)},
          {"kernel_time", d(c.kernel_time)},
          {"mpe_task_time", d(c.mpe_task_time)},
          {"comm_time", d(c.comm_time)},
          {"wait_time", d(c.wait_time)}};
}

/// Every counter field, for the contracts that fix them all.
std::vector<std::string> all_counters() {
  std::vector<std::string> names;
  for (const auto& [name, value] : counter_fields({})) names.push_back(name);
  return names;
}

/// The parts of a run that a contract requires its planes to agree on.
struct Fixes {
  bool numerics = false;   ///< every rank's verification metrics, bitwise
  bool init_wall = false;  ///< every rank's initialization wall
  bool step_walls = false; ///< every rank's step walls
  std::vector<std::string> counters{};  ///< PerfCounters fields of every rank
  bool archive = false;    ///< the archive tree, byte for byte
};

void expect_same(const Digest& want, const Digest& got, const Fixes& fixes) {
  ASSERT_EQ(want.run.ranks.size(), got.run.ranks.size());
  for (std::size_t r = 0; r < want.run.ranks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const runtime::RankResult& a = want.run.ranks[r];
    const runtime::RankResult& b = got.run.ranks[r];
    if (fixes.numerics) {
      EXPECT_EQ(a.metrics, b.metrics);
    }
    if (fixes.init_wall) {
      EXPECT_EQ(a.init_wall, b.init_wall);
    }
    if (fixes.step_walls) {
      EXPECT_EQ(a.step_walls, b.step_walls);
    }
    const std::map<std::string, double> fa = counter_fields(a.counters);
    const std::map<std::string, double> fb = counter_fields(b.counters);
    for (const std::string& name : fixes.counters)
      EXPECT_EQ(fa.at(name), fb.at(name)) << name;
  }
  if (fixes.archive) {
    EXPECT_TRUE(want.archive == got.archive) << "archives differ";
  }
}

// ---------------------------------------------------------------------------
// Planes.

/// One plane of a contract: runs `cell`, writing under `dir`, given the
/// row's first plane (null for the first plane itself).
using Plane = std::function<Digest(const Cell& cell, const std::string& dir,
                                   const Digest* reference)>;

const Plane kAsIs = [](const Cell& c, const std::string& dir, const Digest*) {
  return run(c, dir);
};

/// Without the cell's faults.
const Plane kClean = [](const Cell& c, const std::string& dir, const Digest*) {
  return run(c, dir, [](runtime::RunConfig& config) { config.faults = {}; });
};

/// Stops one archive interval before the end, as if killed, then restarts
/// from its archive, which it goes on writing.
const Plane kKilledAndRestarted = [](const Cell& c, const std::string& dir,
                                     const Digest*) {
  const int cut = c.steps - c.archive_every;
  run(c, dir, [cut](runtime::RunConfig& config) { config.timesteps = cut; });
  return run(c, dir, [cut](runtime::RunConfig& config) {
    config.restart_dir = config.output_dir;
    config.timesteps -= cut;
  });
};

/// With the cell's step deadline, by default just above the reference's
/// slowest step: a step that blows it restarts from the last checkpoint,
/// twice, before the run pushes through.
const Plane kDeadlineRestarted = [](const Cell& c, const std::string& dir,
                                    const Digest* reference) {
  TimePs deadline = c.step_deadline;
  if (deadline == 0) {
    for (const runtime::RankResult& r : reference->run.ranks)
      for (const TimePs wall : r.step_walls) deadline = std::max(deadline, wall);
    deadline += deadline / 16;
  }
  return run(c, dir, [deadline](runtime::RunConfig& config) {
    config.recovery.step_deadline = deadline;
    config.recovery.max_restarts = 2;
  });
};

/// A schedule plane that writes its schedule file under `dir`.
Edit schedule(const std::string& spec, const std::string& dir) {
  return [=](runtime::RunConfig& config) {
    config.schedule = schedpt::ScheduleSpec::parse(spec + ":file=" + dir + "/schedule");
  };
}

/// Records the canonical schedule. With a controller installed, every
/// offload also plans its tiles afresh.
const Plane kRecorded = [](const Cell& c, const std::string& dir, const Digest*) {
  return run(c, dir, schedule("record", dir));
};

/// Replays the schedule file the row's first plane wrote.
const Plane kReplayed = [](const Cell& c, const std::string& dir,
                           const Digest* reference) {
  std::ofstream(dir + "/schedule", std::ios::binary) << reference->schedule;
  return run(c, dir, schedule("replay", dir));
};

/// Fuzzes the schedule with the cell's seed plus `offset`.
Plane fuzzed(int offset) {
  return [offset](const Cell& c, const std::string& dir, const Digest*) {
    return run(c, dir,
               schedule("fuzz:seed=" + std::to_string(c.seed + offset), dir));
  };
}

const Plane kTimingOnly = [](const Cell& c, const std::string& dir, const Digest*) {
  return run(c, dir, [](runtime::RunConfig& config) {
    config.storage = var::StorageMode::kTimingOnly;
  });
};

/// Neither traced nor measured, without flight rings or hang watchdog.
const Plane kDark = [](const Cell& c, const std::string& dir, const Digest*) {
  return run(c, dir, [](runtime::RunConfig& config) {
    config.diag.flight_capacity = 0;
    config.diag.hang_threshold = 0;
  });
};

/// Traced and measured, with the default flight rings and watchdog.
const Plane kObserved = [](const Cell& c, const std::string& dir, const Digest*) {
  return run(c, dir, [](runtime::RunConfig& config) {
    config.collect_trace = true;
    config.collect_metrics = true;
  });
};

// ---------------------------------------------------------------------------
// Cells.

/// The offload variants whose schedulers recover failed offloads.
constexpr const char* kOffloadVariants[] = {"acc_simd.async", "acc.sync", "acc_simd.sync"};
constexpr const char* kAllVariants[] = {"host.sync", "acc.sync", "acc.async",
                                        "acc_simd.sync", "acc_simd.async"};
constexpr const char* kApps[] = {"burgers", "heat", "advect"};

/// `app` on two groups per CG for four steps under `faults`, archived
/// every step.
Cell fault_cell(const char* app, const char* variant, const std::string& faults,
                std::uint64_t seed) {
  return Cell{.app = app, .variant = variant, .steps = 4, .cpe_groups = 2,
              .archive_every = 1, .faults = faults, .seed = seed};
}

/// Every app on self-scheduled 16^3 patches under `faults`, archived
/// every step.
std::vector<Cell> apps_under(const std::string& faults) {
  std::vector<Cell> cells;
  for (const char* app : kApps)
    cells.push_back(Cell{.app = app, .patch = {16, 16, 16}, .tiles = TilePolicy::kDynamic,
                         .archive_every = 1, .faults = faults});
  return cells;
}

std::vector<Cell> concat(std::vector<Cell> a, const std::vector<Cell>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Burgers on hotspot-skewed 16^3 patches of 8 tiles, every tile policy
/// and DMA mode, with and without CPE stalls, DMA errors and offload
/// failures (whose retries re-offload onto the same or a spare group).
std::vector<Cell> plan_cells(var::StorageMode storage) {
  std::vector<Cell> cells;
  for (const TilePolicy tiles : {TilePolicy::kStaticZ, TilePolicy::kDynamic})
    for (const bool async_dma : {false, true})
      for (const bool faults : {false, true})
        cells.push_back(Cell{
            .patch = {16, 16, 16}, .cpe_groups = 2, .tiles = tiles,
            .async_dma = async_dma, .storage = storage,
            .archive_every = storage == var::StorageMode::kFunctional ? 1 : 0,
            .faults = faults ? "cpe_stall:p=0.3:factor=4,dma_error:p=0.1,offload_fail:p=0.2"
                             : "",
            .seed = 11, .burgers_tile = {8, 8, 8}, .burgers_hotspot = 4.0});
  return cells;
}

/// The schedule rows' cell: `app` on two groups per CG, self-scheduled.
Cell schedule_cell(const char* app, const char* variant, grid::IntVec patch,
                   std::uint64_t seed) {
  return Cell{.app = app, .variant = variant, .patch = patch, .cpe_groups = 2,
              .tiles = TilePolicy::kDynamic, .seed = seed};
}

// ---------------------------------------------------------------------------
// The table.

struct Contract {
  std::string name;
  std::vector<Cell> cells;
  /// The planes, each compared with the first.
  std::vector<Plane> planes;
  Fixes fixes;
  /// Predicates on one cell's planes, checked after the comparison.
  std::function<void(const Cell&, const std::vector<Digest>&)> check;
};

void PrintTo(const Contract& c, std::ostream* os) { *os << c.name; }

void expect_positive(std::uint64_t n, const char* what) { EXPECT_GT(n, 0u) << what; }

const Fixes kNumericsAndArchive{.numerics = true, .archive = true};

/// Everything a run reports: the same configuration, run differently.
Fixes everything() {
  return Fixes{.numerics = true, .init_wall = true, .step_walls = true,
               .counters = all_counters(), .archive = true};
}

/// A fault plane against the clean run: only the answer is fixed.
Contract faults_vs_clean(std::string name, std::vector<Cell> cells,
                         std::function<void(const Cell&, const hw::PerfCounters& clean,
                                            const hw::PerfCounters& faulted)>
                             check) {
  return Contract{std::move(name), std::move(cells), {kClean, kAsIs}, kNumericsAndArchive,
                  [check](const Cell& c, const std::vector<Digest>& p) {
                    check(c, p[0].run.merged_counters(), p[1].run.merged_counters());
                  }};
}

/// The same configuration, run twice.
Contract repeats(std::string name, std::vector<Cell> cells) {
  return Contract{std::move(name), std::move(cells), {kAsIs, kAsIs}, everything(), {}};
}

std::vector<Contract> table() {
  std::vector<Cell> offload_retry, offload_degrade;
  for (const char* variant : kOffloadVariants) {
    offload_retry.push_back(fault_cell("burgers", variant, "offload_fail:p=0.3", 11));
    offload_degrade.push_back(fault_cell("heat", variant, "offload_fail:p=1", 5));
  }

  const std::vector<Cell> fuzz_cells = {
      schedule_cell("burgers", "acc.async", {8, 8, 8}, 5),
      Cell{.app = "heat", .variant = "acc.async", .patch = {16, 16, 16}, .steps = 4,
           .cpe_groups = 2, .archive_every = 2, .seed = 5}};
  std::vector<Cell> seed_cells = {schedule_cell("burgers", "acc.async", {8, 8, 8}, 5)};
  for (const char* variant : kAllVariants)
    seed_cells.push_back(schedule_cell("burgers", variant, {16, 16, 16}, 1));

  std::vector<Cell> timing_cells = plan_cells(var::StorageMode::kFunctional);
  for (Cell& c : timing_cells) c.archive_every = 0;
  for (const char* variant : {"acc.sync", "acc_simd.async"})
    timing_cells.push_back(
        Cell{.variant = variant, .layout = {2, 2, 2}, .patch = {8, 8, 16}, .steps = 4});

  std::vector<Cell> observed_cells = {
      Cell{.variant = "acc.async", .storage = var::StorageMode::kTimingOnly}};
  for (const char* variant : kAllVariants) observed_cells.push_back(Cell{.variant = variant});

  std::vector<Cell> every_app_cells = {
      Cell{.patch = {16, 16, 16}, .tiles = TilePolicy::kDynamic, .burgers_hotspot = 4.0}};
  for (const char* app : kApps)
    for (const char* variant : kAllVariants)
      for (const int stages : {1, 2})
        if (stages == 1 || std::string(app) == "heat")
          every_app_cells.push_back(Cell{.app = app, .variant = variant, .layout = {2, 2, 2},
                                         .heat_stages = stages});

  return {
      faults_vs_clean("faults_cpe_stall", apps_under("cpe_stall:p=0.2:factor=8"),
                      [](const Cell&, const hw::PerfCounters&, const hw::PerfCounters& f) {
                        expect_positive(f.fault_injected, "fault_injected");
                      }),
      faults_vs_clean(
          "faults_offload_retry", concat(offload_retry, apps_under("offload_fail:p=0.2")),
          [](const Cell&, const hw::PerfCounters&, const hw::PerfCounters& f) {
            expect_positive(f.fault_injected, "fault_injected");
            expect_positive(f.fault_retries, "fault_retries");
          }),
      // Every offload fails: every group of every rank degrades (the
      // synchronous loop moves to the spare group once group 0 is
      // degraded), and every stencil runs, correctly, on the MPE.
      faults_vs_clean("faults_offload_degrade",
                      concat(offload_degrade, apps_under("offload_fail:p=1")),
                      [](const Cell& c, const hw::PerfCounters& clean,
                         const hw::PerfCounters& f) {
                        EXPECT_EQ(f.fault_degraded,
                                  static_cast<std::uint64_t>(c.ranks * c.cpe_groups));
                        EXPECT_GT(f.kernels_on_mpe, clean.kernels_on_mpe);
                      }),
      faults_vs_clean("faults_dma_error",
                      concat({fault_cell("burgers", "acc_simd.async", "dma_error:p=0.1", 17)},
                             apps_under("dma_error:p=0.1")),
                      [](const Cell&, const hw::PerfCounters&, const hw::PerfCounters& f) {
                        expect_positive(f.fault_injected, "fault_injected");
                        expect_positive(f.fault_retries, "fault_retries: re-issued gets");
                      }),
      faults_vs_clean("faults_msg_delay", apps_under("msg_delay:p=0.2:factor=12"),
                      [](const Cell&, const hw::PerfCounters&, const hw::PerfCounters& f) {
                        expect_positive(f.fault_injected, "fault_injected");
                      }),
      // Lost messages are re-posted at their retransmit deadline, even
      // when every first attempt is lost, and re-enter the wire as real
      // traffic.
      faults_vs_clean(
          "faults_msg_loss",
          concat(concat({fault_cell("burgers", "acc_simd.async",
                                    "msg_loss:p=0.2,msg_delay:p=0.2:factor=10", 13),
                         Cell{.variant = "acc.async", .patch = {16, 16, 16},
                              .archive_every = 1, .faults = "msg_loss:p=1"}},
                        apps_under("msg_loss:p=0.2")),
                 apps_under("msg_loss:p=0.2,msg_delay:p=0.2:factor=12")),
          [](const Cell&, const hw::PerfCounters& clean, const hw::PerfCounters& f) {
            expect_positive(f.fault_injected, "fault_injected");
            expect_positive(f.fault_retries, "fault_retries: retransmits");
            EXPECT_GT(f.messages_sent, clean.messages_sent);
          }),
      // A step-pinned fault fires in every incarnation, so the controller
      // restarts from the last checkpoint until max_restarts is spent,
      // then pushes through; replayed steps rewrite their checkpoints with
      // identical bytes. Every CPE of the Burgers cell carries work (4^3
      // tiles, self-scheduled), so the stall cannot land on an idle one.
      // The advect cell's 1 us deadline is blown by every step, the first
      // one before any checkpoint exists.
      Contract{"deadline_restart",
               {Cell{.patch = {16, 16, 16}, .steps = 6, .cpe_groups = 2,
                     .tiles = TilePolicy::kDynamic, .archive_every = 1,
                     .faults = "cpe_stall:step=3:factor=5000", .seed = 9,
                     .burgers_tile = {4, 4, 4}},
                Cell{.app = "advect", .steps = 4, .archive_every = 1,
                     .faults = "offload_fail:step=2", .step_deadline = kMicrosecond}},
               {kClean, kDeadlineRestarted},
               kNumericsAndArchive,
               [](const Cell& c, const std::vector<Digest>& p) {
                 EXPECT_EQ(p[1].run.merged_counters().fault_restarts,
                           static_cast<std::uint64_t>(2 * c.ranks));
               }},
      Contract{"archive_restart",
               {Cell{.patch = {8, 8, 16}, .steps = 6, .archive_every = 3}},
               {kAsIs, kKilledAndRestarted},
               kNumericsAndArchive,
               {}},
      // Offload-side faults key on the absolute step, so the continuation
      // sees the faults the straight-through run saw. (Message faults key
      // on network sequence numbers, which start over in a new process.)
      Contract{"archive_restart_under_faults",
               {Cell{.steps = 6, .cpe_groups = 2, .archive_every = 2,
                     .faults = "cpe_stall:p=0.3:factor=4,offload_fail:p=0.2,dma_error:p=0.1",
                     .seed = 21}},
               {kAsIs, kKilledAndRestarted},
               kNumericsAndArchive,
               [](const Cell&, const std::vector<Digest>& p) {
                 expect_positive(p[0].run.merged_counters().fault_injected, "fault_injected");
               }},
      // The recording is a fuzzed schedule's: a canonical recording takes
      // candidate 0 at every point, as a replay that ignored it would.
      Contract{"record_replay",
               {schedule_cell("heat", "acc.async", {8, 8, 8}, 5),
                schedule_cell("advect", "acc.async", {16, 16, 16}, 5)},
               {fuzzed(0), kReplayed},
               everything(),
               [](const Cell&, const std::vector<Digest>& p) {
                 EXPECT_GT(total_points(p[0].run.schedule_points), 0u);
                 EXPECT_EQ(total_points(p[0].run.schedule_points),
                           total_points(p[1].run.schedule_points));
               }},
      Contract{"fuzz_vs_canonical", fuzz_cells, {kAsIs, fuzzed(0)}, kNumericsAndArchive,
               [](const Cell& c, const std::vector<Digest>& p) {
                 const schedpt::PointCounters& pts = p[1].run.schedule_points;
                 EXPECT_EQ(total_points(p[0].run.schedule_points), 0u);
                 expect_positive(pts.of(PointKind::kRankPick), "rank_pick");
                 expect_positive(pts.of(PointKind::kOffloadPoll), "offload_poll");
                 if (c.tiles == TilePolicy::kDynamic)
                   expect_positive(pts.of(PointKind::kTileGrab), "tile_grab");
               }},
      Contract{"distinct_seeds", seed_cells, {fuzzed(0), fuzzed(1), fuzzed(2)},
               Fixes{.numerics = true},
               [](const Cell&, const std::vector<Digest>& p) {
                 for (std::size_t i = 0; i < p.size(); ++i) {
                   EXPECT_FALSE(p[i].schedule.empty());
                   for (std::size_t j = 0; j < i; ++j)
                     EXPECT_NE(p[i].schedule, p[j].schedule)
                         << "seeds +" << j << " and +" << i << " explored one interleaving";
                 }
               }},
      // Functional cells move real data through their tiles and archive
      // their fields; both storage modes apply the planned charges.
      Contract{"cached_vs_per_offload_plans",
               concat(plan_cells(var::StorageMode::kFunctional),
                      plan_cells(var::StorageMode::kTimingOnly)),
               {kAsIs, kRecorded},
               everything(),
               [](const Cell& c, const std::vector<Digest>& p) {
                 EXPECT_EQ(total_points(p[0].run.schedule_points), 0u);
                 if (!c.faults.empty()) {
                   EXPECT_GT(p[0].run.merged_counters().fault_injected, 0u);
                   EXPECT_GT(p[0].run.merged_counters().fault_retries, 0u);
                 }
               }},
      // The functional run's end-of-run error reductions add messages and
      // the time spent on them; everything else is fixed.
      Contract{"timing_only_vs_functional",
               timing_cells,
               {kAsIs, kTimingOnly},
               Fixes{.init_wall = true, .step_walls = true,
                     .counters = {"counted_flops", "cells_computed", "tiles_executed",
                                  "tile_grabs", "kernels_offloaded", "kernels_on_mpe",
                                  "dma_bytes_in", "dma_bytes_out", "pack_bytes",
                                  "fault_injected", "fault_retries", "fault_degraded",
                                  "fault_restarts", "kernel_time", "mpe_task_time"}},
               {}},
      Contract{"observation_on_vs_off", observed_cells, {kDark, kObserved}, everything(),
               [](const Cell&, const std::vector<Digest>& p) {
                 for (const runtime::RankResult& r : p[1].run.ranks) {
                   ASSERT_NE(r.trace, nullptr);
                   EXPECT_FALSE(r.trace->empty());
                   EXPECT_NE(r.obs_metrics, nullptr);
                 }
               }},
      repeats("repeat_timing_only",
              {Cell{.layout = {2, 2, 2}, .patch = {8, 8, 16}, .ranks = 4, .steps = 4,
                    .storage = var::StorageMode::kTimingOnly}}),
      repeats("repeat_8_ranks",
              {Cell{.layout = {2, 2, 2}, .ranks = 8, .steps = 4, .archive_every = 2}}),
      // Burgers, heat with one and two stages (new-DW requires and modifies
      // chains) and advect in every variant, and Burgers self-scheduled on
      // skewed patches.
      repeats("repeat_every_app_and_variant", every_app_cells),
  };
}

class Contracts : public ::testing::TestWithParam<Contract> {};

TEST_P(Contracts, Hold) {
  const Contract& contract = GetParam();
  // Per process: two test binaries running one row must not share files.
  const std::string base = ::testing::TempDir() + "usw_contract_" + contract.name + "_" +
                           std::to_string(::getpid());
  for (const Cell& cell : contract.cells) {
    std::ostringstream trace;
    trace << cell;
    SCOPED_TRACE(trace.str());
    fs::remove_all(base);
    std::vector<Digest> planes;
    planes.reserve(contract.planes.size());
    for (std::size_t p = 0; p < contract.planes.size(); ++p) {
      const std::string dir = base + "/plane" + std::to_string(p);
      fs::create_directories(dir);
      planes.push_back(contract.planes[p](cell, dir, p == 0 ? nullptr : &planes.front()));
    }
    for (std::size_t p = 1; p < planes.size(); ++p) {
      SCOPED_TRACE("plane " + std::to_string(p) + " against plane 0");
      expect_same(planes.front(), planes[p], contract.fixes);
    }
    if (contract.check) contract.check(cell, planes);
  }
  fs::remove_all(base);
}

INSTANTIATE_TEST_SUITE_P(Table, Contracts, ::testing::ValuesIn(table()),
                         [](const ::testing::TestParamInfo<Contract>& row) {
                           return row.param.name;
                         });

}  // namespace
}  // namespace usw
