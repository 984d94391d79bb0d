// Tests for the diagnostics layer: the flight-recorder ring, the DiagHub
// dump plumbing, the hang watchdog and induced-deadlock crash dumps, the
// host-side profile, and the streaming metrics emitter. The invariant the
// whole feature rides on, that diagnostics on vs off changes nothing about
// the simulated results, is a row of test_contracts.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/diag.h"
#include "obs/flight.h"
#include "obs/registry.h"
#include "obs/stream.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "apps/burgers/burgers_app.h"
#include "schedpt/schedule.h"
#include "support/build_info.h"
#include "support/error.h"
#include "support/test_helpers.h"

using usw::test::slurp;

namespace usw {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

runtime::RunConfig tiny_config() {
  runtime::RunConfig c;
  c.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});
  c.variant = runtime::variant_by_name("acc.async");
  c.nranks = 2;
  c.timesteps = 3;
  c.storage = var::StorageMode::kTimingOnly;
  return c;
}

// ------------------------------------------------------- flight recorder ---

TEST(FlightRecorder, RecordsInOrder) {
  obs::FlightRecorder ring(8);
  ring.record(obs::FlightKind::kStepBegin, 100, 0);
  ring.record(obs::FlightKind::kMsgSend, 200, 1, 7, 512);
  ring.record(obs::FlightKind::kStepEnd, 300, 0);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<obs::RingEvent> evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].event.kind(), obs::FlightKind::kStepBegin);
  EXPECT_EQ(evs[1].event.kind(), obs::FlightKind::kMsgSend);
  EXPECT_EQ(evs[1].event.a(), 1);
  EXPECT_EQ(evs[1].event.b(), 7);
  EXPECT_EQ(evs[1].event.c(), 512);
  EXPECT_EQ(evs[2].event.time(), 300);
  EXPECT_LT(evs[0].seq, evs[2].seq);
}

TEST(FlightRecorder, WrapsKeepingNewest) {
  obs::FlightRecorder ring(4);
  for (int i = 0; i < 10; ++i)
    ring.record(obs::FlightKind::kRankPick, i, i);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<obs::RingEvent> evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(evs.front().event.a(), 6);
  EXPECT_EQ(evs.back().event.a(), 9);
  EXPECT_EQ(evs.back().seq, 9u);
  // Several wraps later, and off a slot boundary: the survivors are still
  // the newest four, numbered consecutively up to recorded() - 1.
  for (int i = 10; i < 31; ++i)
    ring.record(obs::FlightKind::kRankPick, i, i);
  evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t k = 0; k < evs.size(); ++k) {
    EXPECT_EQ(evs[k].seq, ring.recorded() - 4 + k);
    EXPECT_EQ(evs[k].event.a(), static_cast<std::int32_t>(evs[k].seq));
    EXPECT_EQ(evs[k].event.time(), static_cast<TimePs>(evs[k].seq));
  }
  EXPECT_EQ(evs.back().seq, ring.recorded() - 1);
}

static_assert(sizeof(obs::FlightEvent) == 24);

TEST(FlightRecorder, OperandExtremesRoundTripThroughRingAndDump) {
  // `a` and `c` are 32 bits wide (a rank, step or group; a group, message
  // index, attempt or byte count below 2 GiB); `b` is 56 bits, beside the
  // kind in one word, for message seqs. Every extreme survives the ring,
  // the log and the diag dump's JSON unchanged, and so does the kind.
  constexpr std::int64_t kSeq = (std::int64_t{1} << 55) - 1;
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kBytes = kMax;
  obs::DiagConfig dc;
  dc.flight_capacity = 4;
  dc.dump_path = temp_path("diag_operand_extremes.json");
  obs::DiagHub hub(dc, 1);
  obs::FlightRecorder& ring = hub.rank_ring(0);
  ring.keep_log(true);
  ring.record(obs::FlightKind::kMsgSend, 10, kMin, kSeq, kBytes);
  ring.record(obs::FlightKind::kMsgMatch, 20, kMax, -kSeq, -kBytes);
  ring.record(obs::FlightKind::kBackoffEnd, 30, 0, -kSeq - 1, kMin);
  const std::vector<obs::RingEvent> evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  ASSERT_EQ(ring.log().size(), 3u);
  for (const obs::FlightEvent& e : {evs[0].event, ring.log()[0]}) {
    EXPECT_EQ(e.kind(), obs::FlightKind::kMsgSend);
    EXPECT_EQ(e.a(), kMin);
    EXPECT_EQ(e.b(), kSeq);
    EXPECT_EQ(e.c(), kBytes);
  }
  for (const obs::FlightEvent& e : {evs[1].event, ring.log()[1]}) {
    EXPECT_EQ(e.kind(), obs::FlightKind::kMsgMatch);
    EXPECT_EQ(e.a(), kMax);
    EXPECT_EQ(e.b(), -kSeq);
    EXPECT_EQ(e.c(), -kBytes);
  }
  for (const obs::FlightEvent& e : {evs[2].event, ring.log()[2]}) {
    EXPECT_EQ(e.kind(), obs::FlightKind::kBackoffEnd);
    EXPECT_EQ(e.b(), -kSeq - 1);
    EXPECT_EQ(e.c(), kMin);
  }
  const std::string dump = slurp(hub.write_final(nullptr));
  std::remove(dc.dump_path.c_str());
  const auto line = [](const char* key, std::int64_t v) {
    return "\"" + std::string(key) + "\": " + std::to_string(v);
  };
  for (const std::string& want :
       {line("a", kMin), line("b", kSeq), line("c", kBytes), line("a", kMax),
        line("b", -kSeq), line("c", -kBytes), line("b", -kSeq - 1), line("c", kMin)})
    EXPECT_NE(dump.find(want), std::string::npos) << want;
}

TEST(FlightRecorderDeathTest, OperandAOutside32BitsAborts) {
  obs::FlightRecorder ring(4);
  EXPECT_DEATH(ring.record(obs::FlightKind::kRankPick, 0,
                           std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1),
               "assertion failed");
  EXPECT_DEATH(ring.record(obs::FlightKind::kRankPick, 0,
                           std::int64_t{std::numeric_limits<std::int32_t>::min()} - 1),
               "assertion failed");
}

TEST(FlightRecorderDeathTest, OperandBBeyond56BitsAborts) {
  obs::FlightRecorder ring(4);
  EXPECT_DEATH(ring.record(obs::FlightKind::kMsgSend, 0, 0, std::int64_t{1} << 55),
               "assertion failed");
  EXPECT_DEATH(ring.record(obs::FlightKind::kMsgSend, 0, 0, -(std::int64_t{1} << 55) - 1),
               "assertion failed");
}

TEST(FlightRecorderDeathTest, OperandCOutside32BitsAborts) {
  obs::FlightRecorder ring(4);
  EXPECT_DEATH(ring.record(obs::FlightKind::kMsgSend, 0, 0, 0,
                           std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1),
               "assertion failed");
  EXPECT_DEATH(ring.record(obs::FlightKind::kMsgSend, 0, 0, 0,
                           std::int64_t{std::numeric_limits<std::int32_t>::min()} - 1),
               "assertion failed");
}

TEST(FlightRecorder, CapacityZeroDisables) {
  obs::FlightRecorder ring(0);
  ring.record(obs::FlightKind::kCheckpoint, 1, 2);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(FlightRecorder, KindNamesAreSnakeCase) {
  EXPECT_STREQ(to_string(obs::FlightKind::kRankPick), "rank_pick");
  EXPECT_STREQ(to_string(obs::FlightKind::kMsgRetransmit), "msg_retransmit");
  EXPECT_STREQ(to_string(obs::FlightKind::kGroupDegraded), "group_degraded");
  EXPECT_STREQ(to_string(obs::FlightKind::kRestart), "restart");
}

// --------------------------------------------------------------- diag hub ---

TEST(DiagHub, FinalDumpContainsRingsAndProvenance) {
  obs::DiagConfig dc;
  dc.flight_capacity = 8;
  dc.dump_path = temp_path("diag_final_unit.json");
  obs::DiagHub hub(dc, 2);
  hub.rank_ring(0).record(obs::FlightKind::kStepBegin, 42, 0);
  hub.on_rank_pick(1, 2, 7);
  const std::string path = hub.write_final(nullptr);
  EXPECT_EQ(path, dc.dump_path);
  const std::string dump = slurp(path);
  EXPECT_NE(dump.find("\"diag\": \"final\""), std::string::npos);
  EXPECT_NE(dump.find("step_begin"), std::string::npos);
  EXPECT_NE(dump.find("rank_pick"), std::string::npos);
  EXPECT_NE(dump.find("git_sha"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DiagHub, CrashDumpWinsOverFinal) {
  obs::DiagConfig dc;
  dc.dump_path = temp_path("diag_crash_unit.json");
  obs::DiagHub hub(dc, 1);
  std::vector<sim::RankStatus> status(1);
  status[0].rank = 0;
  status[0].state = 'w';
  hub.on_crash("unit-test crash", status);
  const std::string dump = slurp(dc.dump_path);
  EXPECT_NE(dump.find("\"diag\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("unit-test crash"), std::string::npos);
  // A crash dump already captured the interesting state; the clean-finish
  // dump must not overwrite it — write_final just reports the crash dump.
  EXPECT_EQ(hub.write_final(nullptr), dc.dump_path);
  EXPECT_NE(slurp(dc.dump_path).find("\"diag\": \"crash\""), std::string::npos);
  std::remove(dc.dump_path.c_str());
}

// ------------------------------------------------- watchdog and deadlock ---

TEST(Diag, HangWatchdogFiresAndDumps) {
  runtime::RunConfig c = tiny_config();
  c.diag.hang_threshold = kMicrosecond;  // any real step blows 1 us
  c.diag.dump_path = temp_path("diag_watchdog.json");
  apps::burgers::BurgersApp app;
  try {
    runtime::run_simulation(c, app);
    FAIL() << "watchdog did not fire";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("hang watchdog"), std::string::npos);
  }
  const std::string dump = slurp(c.diag.dump_path);
  EXPECT_NE(dump.find("hang watchdog"), std::string::npos);
  EXPECT_NE(dump.find("ranks_status"), std::string::npos);
  std::remove(c.diag.dump_path.c_str());
}

TEST(Diag, InducedHangDumpNamesLostMessageAndPendingRequest) {
  // The acceptance scenario: total message loss with retransmission
  // disabled deadlocks in virtual time; the dump must name the stalled
  // ranks, the pending (lost) request, and the last schedule points.
  runtime::RunConfig c = tiny_config();
  c.faults = fault::FaultPlan::parse("msg_loss:p=1", 1);
  c.recovery.retransmit = false;
  c.diag.dump_path = temp_path("diag_hang.json");
  apps::burgers::BurgersApp app;
  try {
    runtime::run_simulation(c, app);
    FAIL() << "all-lost exchange did not deadlock";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
  const std::string dump = slurp(c.diag.dump_path);
  EXPECT_NE(dump.find("\"diag\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("msg_lost"), std::string::npos);       // flight events
  EXPECT_NE(dump.find("\"lost\": true"), std::string::npos); // pending send
  EXPECT_NE(dump.find("\"pending\""), std::string::npos);
  EXPECT_NE(dump.find("rank_pick"), std::string::npos);      // coord ring
  std::remove(c.diag.dump_path.c_str());
}

TEST(Diag, CrashDumpRingHoldsTaskAndKernelEdges) {
  // The rank rings record every event kind, so a crash dump shows the task
  // and offload context that led up to the failure: a watchdog tripped
  // mid-step 0, after the first kernels completed.
  runtime::RunConfig c = tiny_config();
  c.diag.hang_threshold = 3 * kMillisecond;
  c.diag.dump_path = temp_path("diag_ring_context.json");
  apps::burgers::BurgersApp app;
  EXPECT_THROW(runtime::run_simulation(c, app), StateError);
  const std::string dump = slurp(c.diag.dump_path);
  EXPECT_NE(dump.find("\"diag\": \"crash\""), std::string::npos);
  for (const char* kind : {"task_begin", "task_end", "offload_begin", "kernel_begin",
                           "kernel_end", "offload_end", "step_begin"})
    EXPECT_NE(dump.find(std::string("\"kind\": \"") + kind + "\""), std::string::npos)
        << kind;
  EXPECT_EQ(dump.find("\"kind\": \"step_end\""), std::string::npos);
  std::remove(c.diag.dump_path.c_str());
}

TEST(Diag, TraceIsKeptWithTheRingsOff) {
  // --flight-capacity=0 turns the rings off, not the trace: a traced run
  // still records every event and pairs and exports every span.
  apps::burgers::BurgersApp app;
  runtime::RunConfig on = tiny_config();
  on.collect_trace = true;
  runtime::RunConfig off = on;
  off.diag.flight_capacity = 0;
  const runtime::RunResult a = runtime::run_simulation(on, app);
  const runtime::RunResult b = runtime::run_simulation(off, app);
  std::ostringstream trace_on;
  std::ostringstream trace_off;
  obs::write_chrome_trace(trace_on, runtime::observe(a));
  obs::write_chrome_trace(trace_off, runtime::observe(b));
  EXPECT_NE(trace_off.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_TRUE(trace_on.str() == trace_off.str());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_FALSE(a.ranks[r].trace->empty());
    EXPECT_EQ(a.ranks[r].trace->size(), b.ranks[r].trace->size());
  }
}

TEST(Diag, RetransmissionOnRecoversTheSameExchange) {
  // Same total-loss plan, retransmission left on: the run completes.
  runtime::RunConfig c = tiny_config();
  c.faults = fault::FaultPlan::parse("msg_loss:p=1", 1);
  apps::burgers::BurgersApp app;
  const runtime::RunResult r = runtime::run_simulation(c, app);
  EXPECT_EQ(static_cast<int>(r.ranks[0].step_walls.size()), c.timesteps);
}

// ------------------------------------------------------------ host profile ---

TEST(HostProfile, FilledForSerialRuns) {
  runtime::RunConfig c = tiny_config();
  apps::burgers::BurgersApp app;
  const runtime::RunResult r = runtime::run_simulation(c, app);
  const obs::Distribution* steps = r.host.distribution("host.step_ms");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->stats.count(),
            static_cast<std::size_t>(c.nranks * c.timesteps));
  const obs::Distribution* init = r.host.distribution("host.rank_init_ms");
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->stats.count(), static_cast<std::size_t>(c.nranks));
  EXPECT_GT(r.host.counters().at("host.run_ms"), 0.0);
}

TEST(SchedPt, HostOverheadCountsOnlyRealDecisions) {
  schedpt::ScheduleSpec spec;
  spec.mode = schedpt::Mode::kFuzz;
  spec.seed = 3;
  const std::unique_ptr<schedpt::ScheduleController> ctrl =
      schedpt::ScheduleController::make(spec);
  ASSERT_NE(ctrl, nullptr);
  for (int i = 0; i < 10; ++i)
    ctrl->choose(schedpt::PointKind::kMsgMatch, 0, 3);
  // Single-candidate points carry no decision: not counted, not timed.
  ctrl->choose(schedpt::PointKind::kTileGrab, 0, 1);
  const schedpt::ScheduleController::HostOverhead oh = ctrl->host_overhead();
  EXPECT_EQ(oh.calls[static_cast<int>(schedpt::PointKind::kMsgMatch)], 10u);
  EXPECT_EQ(oh.calls[static_cast<int>(schedpt::PointKind::kTileGrab)], 0u);
}

// -------------------------------------------------------- streaming metrics ---

TEST(StreamSpec, ParsesFileAndInterval) {
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl").file, "m.jsonl");
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl").interval, 1);
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl:5").interval, 5);
  EXPECT_EQ(obs::StreamSpec::parse("m.jsonl:5").file, "m.jsonl");
  // A non-numeric suffix is part of the file name, not an interval.
  EXPECT_EQ(obs::StreamSpec::parse("dir:a/m.jsonl").file, "dir:a/m.jsonl");
  EXPECT_THROW(obs::StreamSpec::parse(""), ConfigError);
  EXPECT_THROW(obs::StreamSpec::parse("m.jsonl:0"), ConfigError);
  EXPECT_THROW(obs::StreamSpec::parse(":3"), ConfigError);
  EXPECT_THROW(obs::StreamSpec::parse("m.jsonl:99999999999"), ConfigError);
}

TEST(Stream, EmitsHeaderAndPeriodicSnapshots) {
  runtime::RunConfig c = tiny_config();
  c.stream.file = temp_path("stream_test.jsonl");
  c.stream.interval = 2;
  apps::burgers::BurgersApp app;
  runtime::run_simulation(c, app);
  std::ifstream is(c.stream.file);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  // Header + snapshots at completed=2 and completed=3 (final step).
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"stream\":\"uswsim\""), std::string::npos);
  EXPECT_NE(lines[0].find("provenance"), std::string::npos);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
    EXPECT_NE(lines[i].find("\"step\""), std::string::npos);
    EXPECT_NE(lines[i].find("counted_flops"), std::string::npos);
  }
  std::remove(c.stream.file.c_str());
}

// ---------------------------------------------------- config validation ---

TEST(DiagConfig, ValidationCatchesBadCombos) {
  apps::burgers::BurgersApp app;
  {
    runtime::RunConfig c = tiny_config();
    c.diag.dump_path = temp_path("never_written.json");
    c.diag.flight_capacity = 0;
    EXPECT_THROW(runtime::run_simulation(c, app), ConfigError);
  }
  {
    runtime::RunConfig c = tiny_config();
    c.stream.file = temp_path("never_written.jsonl");
    c.stream.interval = 0;
    EXPECT_THROW(runtime::run_simulation(c, app), ConfigError);
  }
  {
    runtime::RunConfig c = tiny_config();
    c.diag.hang_threshold = -1;
    EXPECT_THROW(runtime::run_simulation(c, app), ConfigError);
  }
}

// -------------------------------------------------------- build provenance ---

TEST(BuildInfo, FieldsArePopulated) {
  const BuildInfo& b = build_info();
  EXPECT_STRNE(b.version, "");
  EXPECT_STRNE(b.compiler, "");
  EXPECT_STRNE(b.git_sha, "");
  EXPECT_STRNE(b.sanitizers, "");
  const std::string line = build_info_line();
  EXPECT_NE(line.find("uswsim"), std::string::npos);
  EXPECT_NE(line.find(b.version), std::string::npos);
}

}  // namespace
}  // namespace usw
