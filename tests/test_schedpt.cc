// Tests for the schedule-exploration layer (src/schedpt) and the
// happens-before race oracle it feeds (src/check/hb.h): spec parsing,
// fuzz-hash determinism, record/replay round trips and fail-fast replay
// divergence.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/burgers/burgers_app.h"
#include "check/hb.h"
#include "grid/box.h"
#include "runtime/controller.h"
#include "schedpt/schedule.h"
#include "support/error.h"
#include "support/test_helpers.h"
#include "var/varlabel.h"

namespace usw {
namespace {

namespace fs = std::filesystem;
using schedpt::Mode;
using schedpt::PointKind;
using schedpt::ScheduleController;
using schedpt::ScheduleSpec;
using test::total_points;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(ScheduleSpec, EmptyMeansDefault) {
  const ScheduleSpec spec = ScheduleSpec::parse("");
  EXPECT_EQ(spec.mode, Mode::kDefault);
  EXPECT_EQ(ScheduleSpec::parse("default").mode, Mode::kDefault);
}

TEST(ScheduleSpec, ParsesFuzzRecordReplay) {
  const ScheduleSpec fuzz = ScheduleSpec::parse("fuzz:seed=42:file=/tmp/s");
  EXPECT_EQ(fuzz.mode, Mode::kFuzz);
  EXPECT_EQ(fuzz.seed, 42u);
  EXPECT_EQ(fuzz.file, "/tmp/s");

  const ScheduleSpec rec = ScheduleSpec::parse("record:file=/tmp/r");
  EXPECT_EQ(rec.mode, Mode::kRecord);
  EXPECT_EQ(rec.file, "/tmp/r");

  const ScheduleSpec rep = ScheduleSpec::parse("replay:file=/tmp/r");
  EXPECT_EQ(rep.mode, Mode::kReplay);
  EXPECT_EQ(rep.file, "/tmp/r");
}

TEST(ScheduleSpec, RejectsMalformedSpecs) {
  // Every error must name the flag so uswsim users can find it.
  for (const char* bad : {"chaos", "fuzz:seed=banana", "fuzz:seed=-3",
                          "record", "replay", "record:file=",
                          "fuzz:tempo=fast", "default:file=/tmp/x",
                          "record:seed=2:file=/tmp/x", "fuzz:seed"}) {
    try {
      ScheduleSpec::parse(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--schedule"), std::string::npos)
          << "error for '" << bad << "' does not name the flag: " << e.what();
    }
  }
}

TEST(ScheduleSpec, DescribeNamesModeAndSeed) {
  EXPECT_NE(ScheduleSpec::parse("fuzz:seed=7").describe().find("seed=7"),
            std::string::npos);
  EXPECT_NE(ScheduleSpec::parse("replay:file=f").describe().find("replay"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Controllers.

TEST(ScheduleController, DefaultModeHasNoController) {
  EXPECT_EQ(ScheduleController::make(ScheduleSpec{}), nullptr);
}

TEST(ScheduleController, TrivialPointsAreFreeAndUncounted) {
  const auto c = ScheduleController::make(ScheduleSpec::parse("fuzz:seed=1"));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->choose(PointKind::kRankPick, 0, 1), 0);
  EXPECT_EQ(total_points(c->counters()), 0u);
  EXPECT_EQ(c->points_seen(), 0u);
}

TEST(ScheduleController, FuzzIsDeterministicPerSeed) {
  const auto a = ScheduleController::make(ScheduleSpec::parse("fuzz:seed=9"));
  const auto b = ScheduleController::make(ScheduleSpec::parse("fuzz:seed=9"));
  const auto c = ScheduleController::make(ScheduleSpec::parse("fuzz:seed=10"));
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const PointKind kind = static_cast<PointKind>(i % schedpt::kNumPointKinds);
    const int rank = i % 3;
    const int n = 2 + i % 5;
    const int choice = a->choose(kind, rank, n);
    EXPECT_GE(choice, 0);
    EXPECT_LT(choice, n);
    EXPECT_EQ(choice, b->choose(kind, rank, n)) << "point " << i;
    if (choice != c->choose(kind, rank, n)) differs = true;
  }
  EXPECT_TRUE(differs) << "seeds 9 and 10 made identical choices 200 times";
  EXPECT_EQ(total_points(a->counters()), 200u);
  EXPECT_GT(a->counters().of(PointKind::kMsgMatch), 0u);
}

TEST(ScheduleController, RecordReplayRoundTrip) {
  const std::string file = temp_path("usw_sched_roundtrip.txt");
  std::vector<int> recorded;
  {
    const auto rec =
        ScheduleController::make(ScheduleSpec::parse("record:file=" + file));
    for (int i = 0; i < 20; ++i)
      recorded.push_back(rec->choose(PointKind::kTileGrab, 1, 4));
    rec->finish();
  }
  const auto rep =
      ScheduleController::make(ScheduleSpec::parse("replay:file=" + file));
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(rep->choose(PointKind::kTileGrab, 1, 4), recorded[i]);
  rep->finish();  // fully consumed: must not throw
  fs::remove(file);
}

TEST(ScheduleController, ReplayDivergenceFailsFastNamingThePoint) {
  const std::string file = temp_path("usw_sched_diverge.txt");
  {
    const auto rec =
        ScheduleController::make(ScheduleSpec::parse("record:file=" + file));
    rec->choose(PointKind::kRankPick, 0, 3);
    rec->choose(PointKind::kMsgMatch, 1, 2);
    rec->finish();
  }
  // Wrong kind at point 0.
  auto rep = ScheduleController::make(ScheduleSpec::parse("replay:file=" + file));
  try {
    rep->choose(PointKind::kTileGrab, 0, 3);
    FAIL() << "divergent kind accepted";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("diverged at point #0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile_grab"), std::string::npos) << msg;
  }
  // Wrong candidate count at point 1.
  rep = ScheduleController::make(ScheduleSpec::parse("replay:file=" + file));
  rep->choose(PointKind::kRankPick, 0, 3);
  EXPECT_THROW(rep->choose(PointKind::kMsgMatch, 1, 5), StateError);
  // Wrong rank.
  rep = ScheduleController::make(ScheduleSpec::parse("replay:file=" + file));
  EXPECT_THROW(rep->choose(PointKind::kRankPick, 2, 3), StateError);
  // Running past the recording's end.
  rep = ScheduleController::make(ScheduleSpec::parse("replay:file=" + file));
  rep->choose(PointKind::kRankPick, 0, 3);
  rep->choose(PointKind::kMsgMatch, 1, 2);
  EXPECT_THROW(rep->choose(PointKind::kMsgMatch, 1, 2), StateError);
  // Under-consuming the recording.
  rep = ScheduleController::make(ScheduleSpec::parse("replay:file=" + file));
  rep->choose(PointKind::kRankPick, 0, 3);
  EXPECT_THROW(rep->finish(), StateError);
  fs::remove(file);
}

TEST(ScheduleController, ReplayRejectsBadFiles) {
  EXPECT_THROW(
      ScheduleController::make(ScheduleSpec::parse("replay:file=/nonexistent/s")),
      ConfigError);
  const std::string file = temp_path("usw_sched_badmagic.txt");
  std::ofstream(file) << "not-a-schedule v9\n";
  EXPECT_THROW(ScheduleController::make(ScheduleSpec::parse("replay:file=" + file)),
               ConfigError);
  fs::remove(file);
}

// ---------------------------------------------------------------------------
// End to end: a replay of another configuration fails fast. That fuzzing
// changes the interleaving but not the numerics, and that a replay
// reproduces its recording, are rows of test_contracts.cc.

runtime::RunConfig base_config() {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  config.variant = runtime::variant_by_name("acc.async");
  config.nranks = 2;
  config.timesteps = 3;
  config.cpe_groups = 2;
  config.tile_policy = sched::TilePolicy::kDynamic;
  config.check.enabled = true;
  return config;
}

TEST(ScheduleEndToEnd, ReplayAgainstDifferentConfigDiverges) {
  const std::string file = temp_path("usw_sched_wrongcfg.txt");
  runtime::RunConfig config = base_config();
  config.schedule = ScheduleSpec::parse("record:file=" + file);
  runtime::run_simulation(config, apps::burgers::BurgersApp());

  // One extra timestep executes schedule points past the recording's end:
  // the replay must fail fast naming the first divergent point, not run on
  // a silently different schedule.
  config.timesteps += 1;
  config.schedule = ScheduleSpec::parse("replay:file=" + file);
  try {
    runtime::run_simulation(config, apps::burgers::BurgersApp());
    FAIL() << "divergent replay completed";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("diverged at point #"),
              std::string::npos)
        << e.what();
  }
  fs::remove(file);
}

// ---------------------------------------------------------------------------
// The happens-before oracle.

const var::VarLabel* lbl(const char* name) { return var::VarLabel::create(name); }

grid::Box box(int lo, int hi) { return {{lo, lo, lo}, {hi, hi, hi}}; }

TEST(HbChecker, ForkJoinOrdersOffloadAgainstLaterMpeAccess) {
  check::HbChecker hb(0);
  hb.begin_step(0);
  hb.fork(0, 17);
  hb.write(0, lbl("hb_u"), task::WhichDW::kNew, 1, box(0, 8), "stencil");
  hb.join(0);
  // After the join the MPE's clock dominates the offload's: ordered.
  hb.read(-1, lbl("hb_u"), task::WhichDW::kNew, 1, box(0, 8), "mpe_reduce");
  EXPECT_TRUE(hb.take_violations().empty());
  EXPECT_EQ(hb.forks(), 1u);
  EXPECT_GT(hb.pairs_checked(), 0u);
}

TEST(HbChecker, UnorderedOverlappingWriteIsFlagged) {
  // The seeded regression the oracle exists for: the MPE touches a region
  // an in-flight offload owns. No join edge separates them -> race.
  check::HbChecker hb(3);
  hb.begin_step(2);
  hb.fork(0, 41);
  hb.write(0, lbl("hb_v"), task::WhichDW::kNew, 7, box(0, 8), "offload_stencil");
  hb.write(-1, lbl("hb_v"), task::WhichDW::kNew, 7, box(4, 12), "mpe_task");
  hb.join(0);
  const std::vector<check::Violation> vs = hb.take_violations();
  ASSERT_EQ(vs.size(), 1u);
  const check::Violation& v = vs[0];
  EXPECT_EQ(v.kind, check::ViolationKind::kUnorderedAccess);
  EXPECT_EQ(v.label, "hb_v");
  EXPECT_EQ(v.patch_id, 7);
  // Provenance: the report names the fork's schedule point and the rank,
  // the replay handle for a minimal reproduction.
  EXPECT_NE(v.detail.find("schedule point #41"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("rank 3"), std::string::npos) << v.detail;
}

TEST(HbChecker, ReadReadAndDisjointPairsAreNotRaces) {
  check::HbChecker hb(0);
  hb.begin_step(0);
  hb.fork(0, 1);
  // Concurrent reads of the same region: never a race.
  hb.read(0, lbl("hb_r"), task::WhichDW::kOld, 1, box(0, 8), "offload");
  hb.read(-1, lbl("hb_r"), task::WhichDW::kOld, 1, box(0, 8), "mpe");
  // Concurrent writes to disjoint regions: not a race.
  hb.write(0, lbl("hb_w"), task::WhichDW::kNew, 1, box(0, 4), "offload");
  hb.write(-1, lbl("hb_w"), task::WhichDW::kNew, 1, box(5, 9), "mpe");
  // Same region, same warehouse, different patch: not a race.
  hb.write(0, lbl("hb_p"), task::WhichDW::kNew, 1, box(0, 4), "offload");
  hb.write(-1, lbl("hb_p"), task::WhichDW::kNew, 2, box(0, 4), "mpe");
  hb.join(0);
  EXPECT_TRUE(hb.take_violations().empty());
}

TEST(HbChecker, TwoInFlightOffloadsRaceEachOther) {
  check::HbChecker hb(0);
  hb.begin_step(0);
  hb.fork(0, 5);
  hb.fork(1, 9);
  hb.write(0, lbl("hb_g"), task::WhichDW::kNew, 4, box(0, 8), "offload_a");
  hb.write(1, lbl("hb_g"), task::WhichDW::kNew, 4, box(6, 10), "offload_b");
  hb.join(0);
  hb.join(1);
  const std::vector<check::Violation> vs = hb.take_violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, check::ViolationKind::kUnorderedAccess);
}

TEST(HbChecker, RepeatedStructuralRaceIsReportedOnce) {
  check::HbChecker hb(0);
  for (int step = 0; step < 3; ++step) {
    hb.begin_step(step);
    hb.fork(0, 11);
    hb.write(0, lbl("hb_d"), task::WhichDW::kNew, 1, box(0, 8), "offload");
    hb.write(-1, lbl("hb_d"), task::WhichDW::kNew, 1, box(0, 8), "mpe");
    hb.join(0);
  }
  EXPECT_EQ(hb.take_violations().size(), 1u)
      << "the same (label, patch, task pair) race must be deduplicated";
}

TEST(HbChecker, StepResetSeparatesAccessesAcrossSteps) {
  check::HbChecker hb(0);
  hb.begin_step(0);
  hb.fork(0, 1);
  hb.write(0, lbl("hb_s"), task::WhichDW::kNew, 1, box(0, 8), "offload");
  hb.join(0);
  // Next step: a new offload writes the same region. The cross-step pair
  // must not be compared at all (old/new DW swap re-seeds the data flow).
  hb.begin_step(1);
  hb.fork(0, 2);
  hb.write(0, lbl("hb_s"), task::WhichDW::kNew, 1, box(0, 8), "offload");
  hb.join(0);
  EXPECT_TRUE(hb.take_violations().empty());
}

}  // namespace
}  // namespace usw
