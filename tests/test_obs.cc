// Tests for the observability layer: span pairing, JSON writing, the
// Chrome-trace exporter, metrics rollups, critical-path analysis, and the
// end-to-end properties the paper's evaluation relies on (async variants
// show higher overlap efficiency than synchronous ones; the critical path
// never exceeds the measured wall).

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <tuple>

#include "apps/burgers/burgers_app.h"
#include "fault/fault.h"
#include "grid/partition.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/flight.h"
#include "obs/host_profile.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "runtime/controller.h"
#include "runtime/observe.h"
#include "support/test_helpers.h"
#include "task/graph.h"

using usw::test::build_spans;
using usw::test::first_difference;
using usw::test::slurp;
using usw::test::span_difference;

namespace usw::obs {
namespace {

using FK = FlightKind;

static_assert(sizeof(Span) == 32);
static_assert(sizeof(FlightEvent) == 24);

/// A span edge as the scheduler records it: a = step, b = task (or
/// reduction), c = CPE group, message index or retry attempt.
FlightEvent ev(TimePs time, FlightKind kind, std::int32_t step, std::int64_t b,
               std::int32_t c = -1) {
  return FlightEvent{time, kind, step, b, c};
}

/// A skeleton of tasks "a p0", "b p1", "c p2", "d p3" (task t on patch t),
/// one message "u p0->p2" (patch 0, peer 1, tag 7, 2048 B) and one
/// reduction "r"; `prefix` is prepended to every task name.
TaskGraphInfo skeleton(const std::string& prefix = "") {
  TaskGraphInfo g;
  for (int t = 0; t < 4; ++t) {
    TaskNodeInfo n;
    n.name = prefix + static_cast<char>('a' + t);
    n.label = n.name + " p" + std::to_string(t);
    n.patch = t;
    g.tasks.push_back(n);
  }
  g.messages.push_back(MessageInfo{"u p0->p2", 0, 1, 7, 2048});
  g.reductions = {"r"};
  return g;
}

/// Spans as an exporter sees them: each with its ids and name, resolved by
/// one SpanResolver, and their dump_spans() text.
struct Resolved {
  std::vector<Span> spans;
  std::vector<EventIds> ids;
  std::vector<std::string> names;
  std::string dump;
};

Resolved resolved(std::vector<Span> spans, const TaskGraphInfo& init,
                  const TaskGraphInfo& step) {
  Resolved r;
  SpanResolver resolve(init, step);
  for (const Span& s : spans) {
    r.ids.push_back(resolve.ids(s));
    r.names.push_back(resolve.names()[resolve.name(s)]);
  }
  r.dump = dump_spans(spans, init, step);
  r.spans = std::move(spans);
  return r;
}

/// The spans of `events`, resolved against skeleton("init_") (step -1) and
/// skeleton().
Resolved spans_of(const std::vector<FlightEvent>& events) {
  return resolved(build_spans(events), skeleton("init_"), skeleton());
}

// ---------------------------------------------------------------- trace ---
// The trace is the flight recorder's log; its totals are read from spans.

TEST(Trace, RecordsOnlyWhenEnabled) {
  FlightRecorder rec(0);  // the ring off: only the log records
  rec.record(FK::kTaskBegin, 10, 0, 0);
  EXPECT_TRUE(rec.log().empty());
  rec.keep_log(true);
  rec.record(FK::kTaskBegin, 10, 0, 0);
  rec.record(FK::kTaskEnd, 30, 0, 0);
  EXPECT_EQ(rec.log().size(), 2u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(Trace, FilterAndTotals) {
  const std::vector<FlightEvent> log = {
      ev(10, FK::kKernelBegin, 0, 0, 0), ev(40, FK::kKernelEnd, 0, 0, 0),
      ev(50, FK::kKernelBegin, 0, 1, 0), ev(90, FK::kKernelEnd, 0, 1, 0),
      ev(95, FK::kSendPosted, 0, 0, 0)};
  const Resolved t = spans_of(log);
  const std::vector<Span>& spans = t.spans;
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const Span& s) { return s.kind() == SpanKind::kKernel; }),
            2);
  EXPECT_EQ(covered_time(spans, SpanKind::kKernel), 70);
  EXPECT_NE(t.dump.find("  kernel  b p1  [s0 t1 p1 g0]\n"), std::string::npos);
}

TEST(Trace, EventKindNames) {
  EXPECT_STREQ(to_string(FK::kOffloadBegin), "offload_begin");
  EXPECT_STREQ(to_string(FK::kReduceEnd), "reduce_end");
}

TEST(Trace, TotalBetweenOverlappingSpans) {
  // Two kernels in flight at once (cpe_groups > 1): [10,50] and [30,70]
  // overlap, so the busy time is the union [10,70] = 60, not the sum 80.
  const Resolved t = spans_of(
      {ev(10, FK::kKernelBegin, 0, 0, 0), ev(30, FK::kKernelBegin, 0, 1, 1),
       ev(50, FK::kKernelEnd, 0, 0, 0), ev(70, FK::kKernelEnd, 0, 1, 1)});
  const std::vector<Span>& spans = t.spans;
  EXPECT_EQ(covered_time(spans, SpanKind::kKernel), 60);
}

TEST(Trace, TotalBetweenOutOfOrderRecording) {
  // The async scheduler records a kernel's end at the poll that observes
  // it, stamped with the earlier completion time; totals must not depend on
  // record order.
  const Resolved t = spans_of(
      {ev(10, FK::kKernelBegin, 0, 0, 0), ev(50, FK::kTaskBegin, 0, 2),
       ev(60, FK::kTaskEnd, 0, 2),
       ev(30, FK::kKernelEnd, 0, 0, 0),  // observed after the task ran
       ev(70, FK::kKernelBegin, 0, 1, 0), ev(90, FK::kKernelEnd, 0, 1, 0)});
  const std::vector<Span>& spans = t.spans;
  EXPECT_EQ(covered_time(spans, SpanKind::kKernel), 40);
}

TEST(Trace, TotalBetweenUnmatchedEvents) {
  // A stray end before any begin is ignored; a begin that never ends is
  // closed at the trace's last span-edge stamp.
  const Resolved t = spans_of(
      {ev(5, FK::kWaitEnd, 0, -1), ev(10, FK::kWaitBegin, 0, -1),
       ev(30, FK::kKernelBegin, 0, 0, 0), FlightEvent{80, FK::kStepEnd, 0}});
  const std::vector<Span>& spans = t.spans;
  EXPECT_EQ(covered_time(spans, SpanKind::kWait), 20);
}

TEST(Trace, RecordsStructuredIds) {
  FlightRecorder rec;
  rec.keep_log(true);
  rec.record(FK::kSendPosted, 10, 2, 7, 0);  // step 2, task 7, message 0
  const std::vector<FlightEvent> log(rec.log().begin(), rec.log().end());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].a(), 2);
  EXPECT_EQ(log[0].b(), 7);
  const Resolved t = spans_of(log);
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 1u);
  const EventIds& i = t.ids[0];
  EXPECT_EQ(i.step, 2);
  EXPECT_EQ(i.task, 7);
  EXPECT_EQ(i.patch, 0);
  EXPECT_EQ(i.peer, 1);
  EXPECT_EQ(i.tag, 7);
  EXPECT_EQ(i.bytes, 2048u);
  EXPECT_NE(t.dump.find(" peer1 tag7 2048B]"), std::string::npos);
}

// ---------------------------------------------------------------- spans ---

TEST(Span, PairsBeginEnd) {
  const Resolved t =
      spans_of({ev(10, FK::kTaskBegin, 0, 0), ev(50, FK::kTaskEnd, 0, 0)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind(), SpanKind::kTask);
  EXPECT_EQ(lane_of(spans[0].kind()), Lane::kMpe);
  EXPECT_EQ(spans[0].begin, 10);
  EXPECT_EQ(spans[0].end, 50);
  EXPECT_EQ(spans[0].duration(), 40);
  EXPECT_EQ(t.names[0], "a p0");
  EXPECT_EQ(t.ids[0].patch, 0);
  EXPECT_EQ(t.ids[0].group, -1);
}

TEST(Span, InterleavedSameKindPairsById) {
  // Two offloads in flight at once (cpe_groups = 2): ends arrive in the
  // opposite order of the begins, distinguished only by the ids.
  const Resolved t = spans_of(
      {ev(0, FK::kKernelBegin, 0, 0, 0), ev(10, FK::kKernelBegin, 0, 1, 1),
       ev(30, FK::kKernelEnd, 0, 1, 1), ev(80, FK::kKernelEnd, 0, 0, 0)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(lane_of(spans[0].kind()), Lane::kCpe);
  EXPECT_EQ(spans[0].end - spans[0].begin, 80);  // p0: [0,80]
  EXPECT_EQ(spans[1].end - spans[1].begin, 20);  // p1: [10,30]
  EXPECT_EQ(t.ids[1].group, 1);
  EXPECT_EQ(t.names[1], "b p1");
}

TEST(Span, OutOfOrderEndRecordedAhead) {
  // A kernel's end is recorded at the poll that observes it, stamped with
  // its earlier completion time: events recorded before it can carry later
  // stamps than it does.
  const Resolved t = spans_of(
      {ev(10, FK::kKernelBegin, 0, 0, 0), ev(20, FK::kTaskBegin, 0, 1),
       ev(100, FK::kTaskEnd, 0, 1), ev(90, FK::kKernelEnd, 0, 0, 0)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind(), SpanKind::kKernel);
  EXPECT_EQ(spans[0].duration(), 80);
  EXPECT_EQ(spans[1].duration(), 80);
}

TEST(Span, UnmatchedEndDroppedUnmatchedBeginClosed) {
  const Resolved t =
      spans_of({ev(5, FK::kWaitEnd, 0, -1), ev(10, FK::kWaitBegin, 0, -1),
                ev(70, FK::kTaskBegin, 0, 0)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 2u);
  // The wait never ended: closed at the last stamp in the trace.
  EXPECT_EQ(spans[0].kind(), SpanKind::kWait);
  EXPECT_EQ(t.names[0], "idle");
  EXPECT_EQ(spans[0].end, 70);
}

TEST(Span, KeyReusedAfterCloseOpensFreshSpan) {
  // The same (kind, operands) recurs after its first span closed: the
  // second begin must not pair with the first span's end.
  const Resolved t =
      spans_of({ev(10, FK::kTaskBegin, 0, 2), ev(20, FK::kTaskEnd, 0, 2),
                ev(30, FK::kTaskBegin, 0, 2), ev(55, FK::kTaskEnd, 0, 2)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 10);
  EXPECT_EQ(spans[0].end, 20);
  EXPECT_EQ(spans[1].begin, 30);
  EXPECT_EQ(spans[1].end, 55);
}

TEST(Span, NestedSameKeySpansCloseLifo) {
  const Resolved t = spans_of(
      {ev(0, FK::kReduceBegin, 0, 0), ev(10, FK::kReduceBegin, 0, 0),
       ev(20, FK::kReduceEnd, 0, 0),  // closes the inner one
       ev(40, FK::kReduceEnd, 0, 0),
       ev(45, FK::kReduceEnd, 0, 0)});
  const std::vector<Span>& spans = t.spans;  // nothing open: dropped
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 0);
  EXPECT_EQ(spans[0].end, 40);
  EXPECT_EQ(spans[1].begin, 10);
  EXPECT_EQ(spans[1].end, 20);
  EXPECT_EQ(t.names[0], "r");
  EXPECT_EQ(t.ids[0].task, -1);
}

TEST(Span, SendCarriesBytesAndMpiLane) {
  const Resolved t = spans_of(
      {ev(10, FK::kSendPosted, 1, 4, 0), ev(60, FK::kSendDone, 1, 4, 0)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(lane_of(spans[0].kind()), Lane::kMpi);
  EXPECT_EQ(t.ids[0].bytes, 2048u);
  EXPECT_EQ(t.ids[0].peer, 1);
  EXPECT_EQ(t.ids[0].tag, 7);
  EXPECT_EQ(t.names[0], "u p0->p2");
}

TEST(Span, NamesComeFromTheInitOrStepSkeleton) {
  // Initialization events (step -1) are named from the init graph, every
  // timestep's from the step graph; other event kinds make no span.
  const TaskGraphInfo init = skeleton("init_");
  const TaskGraphInfo step = skeleton();
  const Resolved t = resolved(
      build_spans(std::vector<FlightEvent>{
          ev(0, FK::kTaskBegin, -1, 1), ev(5, FK::kTaskEnd, -1, 1),
          FlightEvent{6, FK::kMsgSend, 1, 3, 2048},
          ev(10, FK::kTaskBegin, 0, 1), ev(15, FK::kTaskEnd, 0, 1)}),
      init, step);
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(t.names[0], "init_b p1");
  EXPECT_EQ(t.ids[0].step, -1);
  EXPECT_EQ(t.names[1], "b p1");
}

TEST(Span, FaultsAndWaitsResolveTheirIds) {
  const Resolved t = spans_of(
      {ev(10, FK::kCpeStall, 0, 2, 1),      // zero-length, group 1
       ev(20, FK::kOffloadFail, 0, 2, 1),   // zero-length, group 1
       ev(30, FK::kOffloadRetry, 0, 2, 1),  // attempt 1: no group
       ev(70, FK::kBackoffEnd, 0, 2, 1),
       ev(80, FK::kWaitBegin, 0, 2, 1), ev(90, FK::kWaitEnd, 0, 2, 1)});
  const std::vector<Span>& spans = t.spans;
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(t.names[0], "cpe_stall c p2");
  EXPECT_EQ(spans[0].kind(), SpanKind::kFault);
  EXPECT_EQ(spans[0].duration(), 0);
  EXPECT_EQ(t.ids[0].group, 1);
  EXPECT_EQ(t.names[1], "offload_fail c p2");
  EXPECT_EQ(t.names[2], "retry backoff");
  EXPECT_EQ(spans[2].duration(), 40);
  EXPECT_EQ(t.ids[2].group, -1);
  EXPECT_EQ(t.ids[2].patch, 2);
  EXPECT_EQ(t.names[3], "cpe-spin");
  EXPECT_EQ(t.ids[3].task, 2);
  EXPECT_EQ(t.ids[3].group, 1);
}

TEST(Span, DumpPrintsOneLinePerSpan) {
  // A zero-length fault is one line; message-level records make no span,
  // an unnamed span shows its kind, and a rolled-back span says so.
  const TaskGraphInfo g = skeleton();
  SpanBuilder builder;
  builder.add(std::vector<FlightEvent>{ev(10, FK::kOffloadFail, 0, 0, 0),
                                       FlightEvent{20, FK::kMsgMatch, 1, 3, 2048},
                                       ev(1500, FK::kReduceBegin, 1, 9),
                                       ev(2500, FK::kReduceEnd, 1, 9)});
  builder.roll_back(1);
  const std::string dump = dump_spans(builder.finish(), g, g);
  EXPECT_EQ(dump,
            "10 ps  +0 ps  fault  offload_fail a p0  [s0 t0 p0 g0]\n"
            "1.500 ns  +1.000 ns  reduce  reduce  [s1]  rolled back\n");
}

TEST(Span, OpenTableGrowsWhileSpansStayOpen) {
  // Each begin is followed by an end that closes nothing, while 40 spans
  // stay open, more than the table's first 16 slots hold at half load: the
  // open table must grow, and each span still closes at its own end.
  std::vector<FlightEvent> log;
  for (int k = 0; k < 40; ++k) {
    log.push_back(ev(k, FK::kTaskBegin, 0, k));
    log.push_back(ev(k, FK::kKernelEnd, 0, k, 0));  // never begun: dropped
  }
  std::vector<TimePs> closes(40);
  for (int k = 0; k < 40; ++k) {
    const int task = (k * 17) % 40;  // a permutation of the tasks
    log.push_back(ev(100 + k, FK::kTaskEnd, 0, task));
    closes[static_cast<std::size_t>(task)] = 100 + k;
  }
  const std::vector<Span> spans = build_spans(log);
  ASSERT_EQ(spans.size(), 40u);
  for (std::size_t k = 0; k < 40; ++k) {
    EXPECT_EQ(spans[k].begin, static_cast<TimePs>(k));
    EXPECT_EQ(spans[k].end, closes[k]) << "task " << k;
  }
}

TEST(Span, PairingMatchesAStackPerKey) {
  // Random span edges over a few hundred keys: nested same-key spans, ends
  // that close nothing, keys leaving the open table from inside probe
  // runs. The reference keeps one stack of open spans per key.
  const FK kinds[][2] = {{FK::kTaskBegin, FK::kTaskEnd},
                         {FK::kKernelBegin, FK::kKernelEnd},
                         {FK::kRecvPosted, FK::kRecvDone}};
  std::mt19937 rng(11);
  std::vector<FlightEvent> log;
  std::map<std::tuple<int, int, int, int>, std::vector<std::size_t>> open;
  std::vector<std::pair<TimePs, TimePs>> want;
  constexpr TimePs kEvents = 6000;
  for (TimePs time = 0; time < kEvents; ++time) {
    const int kind = static_cast<int>(rng() % 3);
    const int step = static_cast<int>(rng() % 3);
    const int b = static_cast<int>(rng() % 8);
    const int c = static_cast<int>(rng() % 4);
    const bool begin = rng() % 2 == 0;
    log.push_back(ev(time, kinds[kind][begin ? 0 : 1], step, b, c));
    std::vector<std::size_t>& stack = open[{kind, step, b, c}];
    if (begin) {
      stack.push_back(want.size());
      want.emplace_back(time, time);
    } else if (!stack.empty()) {
      want[stack.back()].second = time;
      stack.pop_back();
    }
  }
  for (const auto& [key, stack] : open)
    for (const std::size_t i : stack) want[i].second = kEvents - 1;
  const std::vector<Span> spans = build_spans(log);
  ASSERT_EQ(spans.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spans[i].begin, want[i].first) << "span " << i;
    EXPECT_EQ(spans[i].end, want[i].second) << "span " << i;
  }
}

/// The spans of `log` fed to one builder in chunks that end at each of
/// `cuts` (ascending) and at the end of the log.
std::vector<Span> in_chunks(const std::vector<FlightEvent>& log,
                            const std::vector<std::size_t>& cuts) {
  SpanBuilder builder;
  std::size_t from = 0;
  for (const std::size_t to : cuts) {
    builder.add(std::span(log).subspan(from, to - from));
    from = to;
  }
  builder.add(std::span(log).subspan(from));
  return builder.finish();
}

/// Rank `rank`'s flight-ring events, read back from a diagnostic dump;
/// none when the ring dropped any.
std::vector<FlightEvent> ring_of(const std::string& dump, int rank) {
  std::map<std::string, FlightKind, std::less<>> kinds;
  for (int k = 0; k <= static_cast<int>(FK::kBackoffEnd); ++k)
    kinds.emplace(to_string(static_cast<FK>(k)), static_cast<FK>(k));
  std::size_t at = dump.find("\"ranks\"");
  for (int r = 0; r < rank; ++r) at = dump.find("\"flight_recorded\"", at) + 1;
  const std::size_t to = dump.find("\"flight_recorded\"", at);
  const auto field = [&](std::string_view key) {
    at = dump.find(key, at) + key.size();
    return dump.substr(at, dump.find_first_of(",\n", at) - at);
  };
  std::vector<FlightEvent> events;
  while ((at = dump.find("\"t_ps\": ", at)) < to) {
    const TimePs time = std::stoll(field("\"t_ps\": "));
    const std::string kind = field("\"kind\": ");
    const std::int32_t a = std::stoi(field("\"a\": "));
    const std::int64_t b = std::stoll(field("\"b\": "));
    const std::int32_t c = std::stoi(field("\"c\": "));
    events.emplace_back(time, kinds.at(kind.substr(1, kind.size() - 2)), a, b, c);
  }
  at = to;
  if (std::stoull(field("\"flight_recorded\": ")) != events.size()) events.clear();
  return events;
}

TEST(Span, AnyChunkingGivesTheOneChunkSpans) {
  // The builder keeps its open spans from chunk to chunk, so a log cut
  // anywhere pairs as the whole log does. Two logs, each cut at every
  // event boundary and at random ones: rank 1's recorded events of a
  // faulted two-group run, read back from its flight ring, and a hand-made
  // log with a stray end, an unclosed begin, out-of-order begins, nested
  // same-key spans and fault point spans. (Rank 1 is the rank whose
  // offloads fail and retry.)
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
  config.variant = runtime::variant_by_name("acc_simd.async");
  config.nranks = 2;
  config.timesteps = 3;
  config.storage = var::StorageMode::kTimingOnly;
  config.cpe_groups = 2;
  config.faults = fault::FaultPlan::parse("cpe_stall:p=0.2,offload_fail:p=0.2", 1);
  config.collect_trace = true;
  config.diag.flight_capacity = std::size_t{1} << 14;  // the ring keeps every event
  config.diag.dump_path =
      (std::filesystem::temp_directory_path() / "usw_obs_chunking_diag.json").string();
  const apps::burgers::BurgersApp app;
  const runtime::RunResult result = runtime::run_simulation(config, app);
  const std::string dump = slurp(config.diag.dump_path);
  std::remove(config.diag.dump_path.c_str());
  const std::vector<FlightEvent> recorded = ring_of(dump, 1);
  ASSERT_GT(recorded.size(), 100u);
  ASSERT_TRUE(std::any_of(recorded.begin(), recorded.end(),
                          [](const FlightEvent& e) { return e.kind() == FK::kOffloadRetry; }));

  // The run paired its log step by step: one chunk per step.
  EXPECT_EQ(span_difference(*result.ranks[1].trace, build_spans(recorded)), "");

  const std::vector<FlightEvent> made = {
      ev(0, FK::kTaskBegin, -1, 1),      ev(4, FK::kTaskEnd, -1, 1),
      ev(5, FK::kWaitEnd, 0, -1),        // stray end
      ev(10, FK::kWaitBegin, 0, -1),     ev(30, FK::kKernelBegin, 0, 0, 0),
      ev(20, FK::kTaskBegin, 0, 1),      // begins out of order
      ev(25, FK::kCpeStall, 0, 2, 1),    ev(26, FK::kOffloadFail, 0, 2, 1),
      ev(27, FK::kOffloadRetry, 0, 2, 1), FlightEvent{28, FK::kMsgSend, 1, 3, 64},
      ev(40, FK::kWaitEnd, 0, -1),       ev(45, FK::kBackoffEnd, 0, 2, 1),
      ev(42, FK::kKernelEnd, 0, 0, 0),   ev(50, FK::kTaskEnd, 0, 1),
      ev(60, FK::kReduceBegin, 1, 0),    ev(61, FK::kReduceBegin, 1, 0),
      ev(62, FK::kReduceEnd, 1, 0),      ev(70, FK::kTaskBegin, 1, 3),  // never ends
      FlightEvent{75, FK::kStepEnd, 1},  ev(72, FK::kSendPosted, 1, 0, 0)};

  std::mt19937 rng(26);
  for (const std::vector<FlightEvent>& log : {recorded, made}) {
    const std::vector<Span> whole = build_spans(log);
    for (std::size_t k = 0; k <= log.size(); ++k)
      EXPECT_EQ(span_difference(in_chunks(log, {k}), whole), "") << "cut at " << k;
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::size_t> cuts(1 + rng() % 8);
      for (std::size_t& cut : cuts) cut = rng() % (log.size() + 1);
      std::sort(cuts.begin(), cuts.end());
      EXPECT_EQ(span_difference(in_chunks(log, cuts), whole), "") << "trial " << trial;
    }
  }
}

TEST(Span, DrainEmptiesTheLog) {
  // A traced rank keeps one step of events at most: a drain pairs the log
  // and empties it, and the log then holds only what was recorded since.
  // A span open across a drain still closes at its own end.
  FlightRecorder rec(4);
  rec.keep_log(true);
  SpanBuilder builder;
  rec.record(FK::kTaskBegin, 10, 0, 0);
  rec.record(FK::kKernelBegin, 20, 0, 0, 1);
  builder.drain(rec);
  EXPECT_TRUE(rec.log().empty());
  EXPECT_EQ(builder.size(), 2u);
  rec.record(FK::kStepEnd, 25, 0);
  rec.record(FK::kKernelEnd, 40, 0, 0, 1);
  rec.record(FK::kTaskEnd, 50, 0, 0);
  ASSERT_EQ(rec.log().size(), 3u);
  EXPECT_EQ(rec.log()[0].kind(), FK::kStepEnd);
  EXPECT_EQ(rec.log()[2].time(), 50);
  builder.drain(rec);
  EXPECT_TRUE(rec.log().empty());
  EXPECT_EQ(rec.recorded(), 5u);  // the ring saw every event
  const std::vector<Span> spans = builder.finish();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].end, 50);
  EXPECT_EQ(spans[1].end, 40);
}

// ------------------------------------------------------------- resolver ---
// A span keeps what its begin edge recorded; the exporters resolve its ids
// and name against the rank's skeletons.

/// A span as the begin edge `opened_by` of step `step` records it.
Span span_of(FlightKind opened_by, std::int32_t step, std::int32_t b, std::int32_t c = -1) {
  Span s;
  s.step = step;
  s.b = b;
  s.c = c;
  s.opened_by = opened_by;
  return s;
}

TEST(SpanResolver, IdleAndSpinWaits) {
  const TaskGraphInfo g = skeleton();
  SpanResolver resolve(g, g);
  const Span idle = span_of(FK::kWaitBegin, 0, -1);
  EXPECT_EQ(resolve.names()[resolve.name(idle)], "idle");
  const EventIds i = resolve.ids(idle);
  EXPECT_EQ(i.step, 0);
  EXPECT_EQ(i.task, -1);
  EXPECT_EQ(i.patch, -1);
  EXPECT_EQ(i.group, -1);
  // The synchronous scheduler spinning on task 2's kernel on group 1.
  const Span spin = span_of(FK::kWaitBegin, 0, 2, 1);
  EXPECT_EQ(resolve.names()[resolve.name(spin)], "cpe-spin");
  const EventIds j = resolve.ids(spin);
  EXPECT_EQ(j.task, 2);
  EXPECT_EQ(j.patch, 2);
  EXPECT_EQ(j.group, 1);
}

TEST(SpanResolver, RetryBackoffOperandIsAnAttempt) {
  const TaskGraphInfo g = skeleton();
  SpanResolver resolve(g, g);
  const Span retry = span_of(FK::kOffloadRetry, 0, 3, 5);  // attempt 5
  EXPECT_EQ(retry.kind(), SpanKind::kFault);
  EXPECT_EQ(resolve.names()[resolve.name(retry)], "retry backoff");
  const EventIds i = resolve.ids(retry);
  EXPECT_EQ(i.task, 3);
  EXPECT_EQ(i.patch, 3);
  EXPECT_EQ(i.group, -1);
  // An offload's c is its group.
  EXPECT_EQ(resolve.ids(span_of(FK::kOffloadBegin, 0, 3, 5)).group, 5);
  EXPECT_EQ(resolve.ids(span_of(FK::kTaskBegin, 0, 3, 5)).group, -1);
}

TEST(SpanResolver, FaultNamesAreFormattedFromTheTaskLabel) {
  const TaskGraphInfo g = skeleton();
  SpanResolver resolve(g, g);
  const Span stall = span_of(FK::kCpeStall, 0, 1, 0);
  const Span fail = span_of(FK::kOffloadFail, 0, 1, 2);
  const std::uint32_t stall_name = resolve.name(stall);
  EXPECT_EQ(resolve.names()[stall_name], "cpe_stall b p1");
  EXPECT_EQ(resolve.names()[resolve.name(fail)], "offload_fail b p1");
  EXPECT_EQ(resolve.ids(stall).group, 0);
  EXPECT_EQ(resolve.ids(fail).group, 2);
  EXPECT_EQ(resolve.ids(fail).patch, 1);
  // Each name is interned once: a second stall of task 1 reuses it.
  const std::size_t names = resolve.names().size();
  EXPECT_EQ(resolve.name(span_of(FK::kCpeStall, 4, 1, 3)), stall_name);
  EXPECT_EQ(resolve.name(span_of(FK::kTaskBegin, 0, 1)), resolve.name(span_of(FK::kKernelBegin, 2, 1, 0)));
  EXPECT_EQ(resolve.names().size(), names + 1);  // "b p1"
}

TEST(SpanResolver, InitSpansResolveAgainstTheInitSkeleton) {
  TaskGraphInfo init = skeleton("init_");
  init.tasks[1].patch = 9;
  init.messages[0] = MessageInfo{"v p5->p6", 5, 3, 11, 64};
  init.reductions = {"init_r"};
  const TaskGraphInfo step = skeleton();
  SpanResolver resolve(init, step);
  const auto name = [&resolve](const Span& s) { return resolve.names()[resolve.name(s)]; };

  EXPECT_EQ(name(span_of(FK::kTaskBegin, -1, 1)), "init_b p1");
  EXPECT_EQ(resolve.ids(span_of(FK::kKernelBegin, -1, 1, 0)).patch, 9);
  EXPECT_EQ(name(span_of(FK::kCpeStall, -1, 1, 0)), "cpe_stall init_b p1");
  EXPECT_EQ(name(span_of(FK::kReduceBegin, -1, 0)), "init_r");
  const Span init_send = span_of(FK::kSendPosted, -1, 0, 0);
  EXPECT_EQ(name(init_send), "v p5->p6");
  const EventIds i = resolve.ids(init_send);
  EXPECT_EQ(i.step, -1);
  EXPECT_EQ(i.patch, 5);
  EXPECT_EQ(i.peer, 3);
  EXPECT_EQ(i.tag, 11);
  EXPECT_EQ(i.bytes, 64u);

  EXPECT_EQ(name(span_of(FK::kTaskBegin, 0, 1)), "b p1");
  EXPECT_EQ(resolve.ids(span_of(FK::kKernelBegin, 0, 1, 0)).patch, 1);
  EXPECT_EQ(name(span_of(FK::kReduceBegin, 0, 0)), "r");
  EXPECT_EQ(name(span_of(FK::kRecvPosted, 3, 2, 0)), "u p0->p2");
  EXPECT_EQ(resolve.ids(span_of(FK::kRecvPosted, 3, 2, 0)).bytes, 2048u);
}

TEST(SpanResolver, OperandsOutsideTheSkeletonResolveUnset) {
  const TaskGraphInfo g = skeleton();
  SpanResolver resolve(g, g);
  const auto unnamed = [&resolve](const Span& s) { return resolve.name(s) == 0; };
  EXPECT_EQ(resolve.names()[0], "");

  const Span kernel = span_of(FK::kKernelBegin, 0, 7, 1);  // 4 tasks
  EXPECT_TRUE(unnamed(kernel));
  EventIds i = resolve.ids(kernel);
  EXPECT_EQ(i.task, 7);
  EXPECT_EQ(i.group, 1);
  EXPECT_EQ(i.patch, -1);

  const Span send = span_of(FK::kSendPosted, 0, 2, 5);  // 1 message
  EXPECT_TRUE(unnamed(send));
  i = resolve.ids(send);
  EXPECT_EQ(i.task, 2);
  EXPECT_EQ(i.patch, -1);
  EXPECT_EQ(i.peer, -1);
  EXPECT_EQ(i.tag, -1);
  EXPECT_EQ(i.bytes, 0u);

  const Span reduce = span_of(FK::kReduceBegin, 0, 3);  // 1 reduction
  EXPECT_TRUE(unnamed(reduce));
  EXPECT_EQ(resolve.ids(reduce).task, -1);
  EXPECT_TRUE(unnamed(span_of(FK::kCpeStall, 0, 9, 0)));
  EXPECT_TRUE(unnamed(span_of(FK::kOffloadFail, 0, -1, 0)));
  EXPECT_TRUE(unnamed(span_of(FK::kTaskBegin, 0, -1)));
  // The fixed names still hold outside the skeleton.
  EXPECT_EQ(resolve.names()[resolve.name(span_of(FK::kWaitBegin, 0, 9, 0))], "cpe-spin");
  EXPECT_EQ(resolve.names()[resolve.name(span_of(FK::kOffloadRetry, 0, 9, 1))],
            "retry backoff");
  // Nothing is resolved against an empty skeleton either.
  const TaskGraphInfo none;
  SpanResolver empty(none, none);
  EXPECT_EQ(empty.name(span_of(FK::kTaskBegin, -1, 0)), 0u);
  EXPECT_EQ(empty.ids(span_of(FK::kSendPosted, -1, 0, 0)).bytes, 0u);
  // dump_spans shows an unnamed span's kind.
  EXPECT_EQ(dump_spans(std::vector<Span>{kernel}, g, g), "0 ps  +0 ps  kernel  kernel  [s0 t7 g1]\n");
}

// ----------------------------------------------------------- json writer ---

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
}

TEST(JsonWriter, WritesNestedStructure) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("n", 3);
    w.key("xs").begin_array().value(1.5).value_null().value(true).end_array();
    w.key("o").begin_object().kv("s", "hi").end_object();
    w.end_object();
  }
  EXPECT_EQ(os.str(), "{\"n\":3,\"xs\":[1.5,null,true],\"o\":{\"s\":\"hi\"}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(os.str(), "[null]");
}

TEST(JsonWriter, DoublesMatchPrintfG12) {
  // The exporters' documented number format is printf's %.12g; every
  // magnitude, the %g notation switch points and signed zero included.
  std::vector<double> values = {0.0, -0.0, 0.1, 1e-7, 1e21, 9007199254740993.0,
                                1e-4, 9.99999999999e-5, 1e12, 999999999999.0,
                                999999999999.5, 123456789012.345, 1.0 / 3.0,
                                -2.5, 5e-324, std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(), 100.0,
                                0.148033563673, 1e15, 4.5e-310};
  for (int e = -300; e <= 300; e += 7)
    for (const double m : {1.0, 1.23456789012345, -7.777777777777777})
      values.push_back(m * std::pow(10.0, e));
  for (const double v : values) {
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.value(v);
    char want[40];
    std::snprintf(want, sizeof(want), "%.12g", v);
    EXPECT_EQ(os.str(), want) << "value " << want;
  }
}

TEST(JsonWriter, IntegerExtremes) {
  std::ostringstream os;
  {
    JsonWriter w(os, 0);
    w.begin_array()
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::numeric_limits<std::int64_t>::max())
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::uint64_t{0})
        .value(-1)
        .end_array();
  }
  EXPECT_EQ(os.str(),
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615,0,-1]");
}

TEST(JsonWriter, OutputCompleteAtDepthZeroWhileWriterAlive) {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.begin_object().kv("k", "v\x01").key("a").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n \"k\": \"v\\u0001\",\n \"a\": []\n}");
  // A second top-level value continues on the same stream.
  w.value(7);
  EXPECT_EQ(os.str(), "{\n \"k\": \"v\\u0001\",\n \"a\": []\n}7");
}

TEST(JsonWriter, RawValuesTakeCommasAndCrossBufferFlushes) {
  // raw_value() places commas as any value does; put() takes text of any
  // length and space() a bounded run, across buffer flushes.
  std::ostringstream os;
  const std::string long_text(JsonWriter::kBufferBytes + 100, 'x');
  {
    JsonWriter w(os, 0);
    w.begin_array().value(1);
    w.raw_value([](JsonWriter::Raw& out) { out.put("{\"a\":2}"); });
    w.raw_value([&](JsonWriter::Raw& out) {
      out.put("\"");
      out.put(long_text);
      char* p = out.space(3);
      p[0] = '"';
      out.commit(p + 1);
    });
    w.value(3).end_array();
  }
  EXPECT_EQ(os.str(), "[1,{\"a\":2},\"" + long_text + "\",3]");
}

// ------------------------------------------------------------- registry ---

TEST(MetricsRegistry, CountersAndDistributions) {
  MetricsRegistry r;
  EXPECT_TRUE(r.counters().empty());
  EXPECT_TRUE(r.distributions().empty());
  r.count("msgs");
  r.count("msgs", 2.0);
  r.sample("bytes", 100.0);
  r.sample("bytes", 300.0);
  EXPECT_EQ(r.counters(), (MetricsRegistry::Counters{{"msgs", 3.0}}));
  ASSERT_NE(r.distribution("bytes"), nullptr);
  EXPECT_EQ(r.distribution("bytes")->stats.count(), 2u);
  EXPECT_DOUBLE_EQ(r.distribution("bytes")->pct(50), 200.0);
  EXPECT_EQ(r.distribution("absent"), nullptr);
}

TEST(MetricsRegistry, HandleIsTheNamedDistribution) {
  MetricsRegistry r;
  EXPECT_EQ(r.distribution("d"), nullptr);
  Distribution& d = r.handle("d");
  EXPECT_EQ(r.distribution("d"), &d);
  d.add(1.0);
  // Entries made later do not move it.
  for (int i = 0; i < 64; ++i) r.sample(std::to_string(i), 1.0);
  r.sample("d", 2.0);
  d.add(3.0);
  EXPECT_EQ(r.distribution("d"), &d);
  EXPECT_EQ(d.samples, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(MetricsRegistry, MergeAddsAndConcatenates) {
  MetricsRegistry a, b;
  a.count("c", 1.0);
  a.sample("d", 1.0);
  b.count("c", 2.0);
  b.sample("d", 3.0);
  b.sample("e", 5.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counters().at("c"), 3.0);
  EXPECT_EQ(a.distribution("d")->stats.count(), 2u);
  EXPECT_DOUBLE_EQ(a.distribution("d")->pct(50), 2.0);
  EXPECT_EQ(a.distribution("e")->stats.count(), 1u);
}

// ------------------------------------------------------- fabricated runs ---

/// One rank, one step: kernel [100,200], wait [0,50], send [10,30] of 1 KiB,
/// task 0 "a" [0,90] -> task 1 "b" [90,250].
RunObservation tiny_run() {
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 1;
  RankObservation r;
  r.rank = 0;
  // A step-0 span as its begin edge records it: b = task, c = CPE group
  // or message index.
  auto span = [](TimePs begin, TimePs end, FlightKind opened_by, std::int32_t b,
                 std::int32_t c) {
    Span s;
    s.begin = begin;
    s.end = end;
    s.step = 0;
    s.b = b;
    s.c = c;
    s.opened_by = opened_by;
    return s;
  };
  r.trace = std::make_shared<const std::vector<Span>>(std::vector<Span>{
      span(0, 90, FK::kTaskBegin, 0, -1), span(90, 250, FK::kTaskBegin, 1, -1),
      span(100, 200, FK::kKernelBegin, 1, 0), span(0, 50, FK::kWaitBegin, -1, -1),
      span(10, 30, FK::kSendPosted, 0, 0)});
  TaskNodeInfo a;
  a.name = "a";
  a.label = "a p0";
  a.patch = 0;
  a.successors = {1};
  TaskNodeInfo b;
  b.name = "b";
  b.label = "b p0";
  b.patch = 0;
  TaskGraphInfo g;
  g.tasks = {a, b};
  g.messages = {MessageInfo{"u", 0, 0, 9, 1024}};
  r.skeleton = std::make_shared<const TaskGraphInfo>(std::move(g));
  r.step_walls = {300};
  run.ranks.push_back(std::move(r));
  return run;
}

TEST(Metrics, PerStepRollupsFromSpans) {
  const MetricsReport m = build_metrics(tiny_run());
  ASSERT_EQ(m.steps.size(), 1u);
  const StepMetrics& s = m.steps[0];
  EXPECT_EQ(s.wall, 300);
  EXPECT_EQ(s.kernel, 100);
  EXPECT_EQ(s.wait, 50);
  EXPECT_EQ(s.comm, 20);
  EXPECT_EQ(s.mpe_busy, 250);
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.message_bytes, 1024u);
  EXPECT_DOUBLE_EQ(s.overlap_efficiency, 1.0 - 50.0 / 300.0);
  // The dependent chain a -> b covers both tasks: 90 + 160.
  EXPECT_EQ(s.critical_path, 250);
  ASSERT_EQ(m.tasks.size(), 2u);
  EXPECT_EQ(m.tasks[0].name, "a");
  EXPECT_EQ(m.tasks[0].executions, 1u);
  EXPECT_EQ(m.tasks[1].total, 160);
}

TEST(Metrics, JsonExportContainsSchema) {
  std::ostringstream os;
  write_metrics_json(os, build_metrics(tiny_run()));
  const std::string j = os.str();
  for (const char* field :
       {"\"nranks\"", "\"timesteps\"", "\"totals\"", "\"overlap_efficiency\"",
        "\"steps\"", "\"critical_path_ps\"", "\"tasks\"", "\"histograms\"",
        "\"counters\"", "\"kernel_ps\"", "\"wait_ps\""})
    EXPECT_NE(j.find(field), std::string::npos) << "missing " << field;
}

TEST(CriticalPath, ChainAndSlack) {
  const CriticalPathReport cp = build_metrics(tiny_run()).critical_chain;
  EXPECT_EQ(cp.total, 250);
  EXPECT_EQ(cp.makespan, 250);
  ASSERT_EQ(cp.chain.size(), 2u);
  EXPECT_EQ(cp.chain[0].name, "a");
  EXPECT_EQ(cp.chain[1].name, "b");
  EXPECT_EQ(cp.slack_by_task.at("a"), 0);
  EXPECT_EQ(cp.slack_by_task.at("b"), 0);
  EXPECT_EQ(cp.slack(), 0);
}

TEST(CriticalPath, CrossRankSendRecvEdge) {
  // rank 0 task "prod" [0,100] sends (peer 1, tag 5); rank 1 task "cons"
  // [150,250] receives (peer 0, tag 5). Chain = 100 + 100 = 200 across
  // ranks; makespan = 250.
  RunObservation run;
  run.nranks = 2;
  run.timesteps = 1;
  for (int rank = 0; rank < 2; ++rank) {
    RankObservation r;
    r.rank = rank;
    Span s;
    s.opened_by = FK::kTaskBegin;
    s.step = 0;
    s.b = 0;
    s.begin = rank == 0 ? 0 : 150;
    s.end = rank == 0 ? 100 : 250;
    r.trace = std::make_shared<const std::vector<Span>>(1, s);
    TaskNodeInfo node;
    node.name = rank == 0 ? "prod" : "cons";
    node.patch = rank;
    // The same message at both ends: a send of task 0 to (peer 1, tag 5)
    // and a receive of task 0 from (peer 0, tag 5).
    const MessageInfo message{"u p0->p1", rank, 1 - rank, 5, 64, 0, rank == 0};
    r.skeleton = std::make_shared<const TaskGraphInfo>(TaskGraphInfo{{node}, {message}, {}});
    r.step_walls = {250};
    run.ranks.push_back(std::move(r));
  }
  const CriticalPathReport cp = build_metrics(run).critical_chain;
  EXPECT_EQ(cp.total, 200);
  EXPECT_EQ(cp.makespan, 250);
  ASSERT_EQ(cp.chain.size(), 2u);
  EXPECT_EQ(cp.chain[0].rank, 0);
  EXPECT_EQ(cp.chain[1].rank, 1);
  EXPECT_LE(cp.total, cp.makespan);
}

TEST(CriticalPath, TiesGoToTheFirstSpanAndTheFirstEdge) {
  // Two chains of 150 end at rank 0's tasks q and p: a -> q, where q also
  // receives from rank 1's c, and e -> p. q's span begins first, so q ends
  // the reported chain, although p has the lower task index; of q's two
  // predecessors of 100, a comes first (rank 0 before rank 1), although c
  // is the sender. f hangs off c with 30 of slack.
  RunObservation run;
  run.nranks = 2;
  run.timesteps = 1;
  const auto task = [](const char* name, std::vector<int> successors) {
    TaskNodeInfo t;
    t.name = name;
    t.label = name;
    t.successors = std::move(successors);
    return t;
  };
  const auto span = [](TimePs begin, TimePs end, int t) {
    Span s;
    s.opened_by = FK::kTaskBegin;
    s.step = 0;
    s.b = t;
    s.begin = begin;
    s.end = end;
    return s;
  };
  const MessageInfo c_to_q{"u p1->p0", 0, 1, 9, 8, 1, false};
  const MessageInfo c_sends{"u p1->p0", 1, 0, 9, 8, 0, true};
  RankObservation& r0 = run.ranks.emplace_back();
  r0.rank = 0;
  r0.skeleton = std::make_shared<const TaskGraphInfo>(TaskGraphInfo{
      {task("p", {}), task("q", {}), task("a", {1}), task("e", {0})}, {c_to_q}, {}});
  r0.trace = std::make_shared<const std::vector<Span>>(std::vector<Span>{
      span(0, 100, 2), span(0, 100, 3), span(100, 150, 1), span(110, 160, 0)});
  RankObservation& r1 = run.ranks.emplace_back();
  r1.rank = 1;
  r1.skeleton = std::make_shared<const TaskGraphInfo>(
      TaskGraphInfo{{task("c", {1}), task("f", {})}, {c_sends}, {}});
  r1.trace = std::make_shared<const std::vector<Span>>(
      std::vector<Span>{span(0, 100, 0), span(100, 120, 1)});

  const CriticalPathReport cp = build_metrics(run).critical_chain;
  EXPECT_EQ(cp.total, 150);
  EXPECT_EQ(cp.makespan, 160);
  std::vector<std::pair<int, int>> chain;
  for (const CriticalPathEntry& e : cp.chain) chain.emplace_back(e.rank, e.task);
  EXPECT_EQ(chain, (std::vector<std::pair<int, int>>{{0, 2}, {0, 1}}));
  EXPECT_EQ(cp.slack_by_task, (std::map<std::string, TimePs>{
                                  {"a", 0}, {"c", 0}, {"e", 0}, {"f", 30}, {"p", 0}, {"q", 0}}));
}

TEST(CriticalPath, ReportKeepsTheSlowestStepsChainFirstOfEqualWalls) {
  // One task per step, 50 long in step 0 and 30 in step 1: the kept chain
  // is the slower step's, and the first step's when the walls are equal.
  const auto kept = [](std::vector<TimePs> walls) {
    RunObservation run;
    run.nranks = 1;
    run.timesteps = 2;
    RankObservation& r = run.ranks.emplace_back();
    TaskNodeInfo a;
    a.name = "a";
    r.skeleton = std::make_shared<const TaskGraphInfo>(TaskGraphInfo{{a}, {}, {}});
    std::vector<Span> spans(2);
    for (int step = 0; step < 2; ++step) {
      Span& s = spans[static_cast<std::size_t>(step)];
      s.opened_by = FK::kTaskBegin;
      s.step = step;
      s.b = 0;
      s.begin = 100 * step;
      s.end = s.begin + (step == 0 ? 50 : 30);
    }
    r.trace = std::make_shared<const std::vector<Span>>(std::move(spans));
    r.step_walls = std::move(walls);
    const CriticalPathReport cp = build_metrics(run).critical_chain;
    return std::pair(cp.step, cp.total);
  };
  EXPECT_EQ(kept({200, 200}), std::pair(0, TimePs{50}));
  EXPECT_EQ(kept({100, 200}), std::pair(1, TimePs{30}));
}

TEST(CriticalPath, EmptyWithoutSpans) {
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 1;
  run.ranks.emplace_back();
  const CriticalPathReport cp = build_metrics(run).critical_chain;
  EXPECT_EQ(cp.total, 0);
  EXPECT_TRUE(cp.chain.empty());
}

// ------------------------------------------------------------ exporters ---

TEST(ChromeTrace, RendersRankAndLaneTracks) {
  std::ostringstream os;
  write_chrome_trace(os, tiny_run());
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(j.find("\"MPE\""), std::string::npos);
  EXPECT_NE(j.find("\"CPE group 0\""), std::string::npos);
  EXPECT_NE(j.find("\"MPI\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity; full validation is
  // done with a JSON parser in CI).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['), std::count(j.begin(), j.end(), ']'));
}

TEST(Report, PrintsTables) {
  const RunObservation run = tiny_run();
  std::ostringstream os;
  print_report(os, build_metrics(run));
  const std::string out = os.str();
  EXPECT_NE(out.find("Run totals"), std::string::npos);
  EXPECT_NE(out.find("Per-timestep breakdown"), std::string::npos);
  EXPECT_NE(out.find("Critical chain"), std::string::npos);
}

TEST(ChromeTrace, TimesFormatExactlyAsPrintfG12) {
  // format_us() must write what to_chars(ps * 1e-6, general, 12) writes.
  // Its fixed-point path covers [100, 10^12); just outside, the two texts
  // differ (ps 99 prints 9.9e-05, ps 1234567890123 prints 1234567.89012),
  // so widening either bound fails here.
  std::size_t mismatches = 0;
  TimePs first = 0;
  const auto check = [&](TimePs ps) {
    char got[kMaxUsChars];
    char want[kMaxUsChars];
    const std::string_view g(got, static_cast<std::size_t>(format_us(got, ps) - got));
    const char* end = std::to_chars(want, want + kMaxUsChars, static_cast<double>(ps) * 1e-6,
                                    std::chars_format::general, 12)
                          .ptr;
    if (g != std::string_view(want, static_cast<std::size_t>(end - want)) &&
        mismatches++ == 0)
      first = ps;
  };
  for (TimePs ps = 0; ps < 2'000'000; ++ps) check(ps);
  for (TimePs power = 1;; power *= 10) {  // 10^k for k <= 18
    for (TimePs d = -3; d <= 3; ++d) check(power + d);
    if (power == 1'000'000'000'000'000'000) break;
  }
  std::mt19937_64 rng(2018);
  std::uniform_real_distribution<double> exponent(0.0, 13.0);
  for (int i = 0; i < 1'000'000; ++i)
    check(static_cast<TimePs>(std::pow(10.0, exponent(rng))));
  EXPECT_EQ(mismatches, 0u) << "first at ps " << first;
}

/// Each span object of rank `r` in `trace`, in span order, must be what
/// one JsonWriter call per member writes, with the span's ids and name
/// resolved by one SpanResolver.
void expect_spans_as_the_generic_writer_writes_them(const std::string& trace,
                                                    const RankObservation& r) {
  const auto tid = [](const Span& s, const EventIds& ids) {
    switch (lane_of(s.kind())) {
      case Lane::kCpe: return 1 + ids.group;
      case Lane::kMpi: return 90;
      default: return 0;
    }
  };
  SpanResolver resolve = r.resolver();
  std::size_t at = 0;
  for (const Span& s : r.spans()) {
    std::ostringstream want;
    {
      JsonWriter w(want, 0);
      const std::string_view name = resolve.names()[resolve.name(s)];
      const EventIds ids = resolve.ids(s);
      w.begin_object();
      w.kv("name", name.empty() ? std::string_view(to_string(s.kind())) : name);
      w.kv("cat", to_string(s.kind()));
      w.kv("ph", "X");
      w.kv("ts", static_cast<double>(s.begin) * 1e-6);
      w.kv("dur", static_cast<double>(s.duration()) * 1e-6);
      w.kv("pid", r.rank);
      w.kv("tid", tid(s, ids));
      w.key("args").begin_object();
      w.kv("step", ids.step);
      if (ids.task >= 0) w.kv("task", ids.task);
      if (ids.patch >= 0) w.kv("patch", ids.patch);
      if (ids.peer >= 0) w.kv("peer", ids.peer);
      if (ids.tag >= 0) w.kv("tag", ids.tag);
      if (ids.group >= 0) w.kv("cpe_group", ids.group);
      if (ids.bytes > 0) w.kv("bytes", ids.bytes);
      w.end_object();
      w.end_object();
    }
    at = trace.find(want.str(), at);
    ASSERT_NE(at, std::string::npos) << "missing or out of order: " << want.str();
  }
}

TEST(ChromeTrace, SpanObjectsMatchTheGenericWriter) {
  // Labels with a quote, a backslash and a control byte, resolved from a
  // fabricated skeleton, and times on both sides of format_us()'s
  // fixed-point range: each span object must be what one JsonWriter call
  // per member writes, with names escaped by JsonWriter::escape.
  TaskGraphInfo g;
  TaskNodeInfo node;
  node.name = "q\"b\\s\x01";
  node.label = node.name + " p5";
  node.patch = 5;
  g.tasks = {node};
  g.messages.push_back(MessageInfo{"m\"\\\x01 p5->p6", 5, 3, 11,
                                   std::numeric_limits<std::uint64_t>::max()});
  const std::vector<FlightEvent> log = {
      ev(0, FK::kTaskBegin, 0, 0),
      ev(50, FK::kSendPosted, 0, 0, 0),
      ev(60, FK::kCpeStall, 0, 0, 1),
      ev(70, FK::kReduceBegin, 0, 7),  // not in the skeleton: named by kind
      ev(80, FK::kReduceEnd, 0, 7),
      ev(99, FK::kSendDone, 0, 0, 0),
      ev(123, FK::kOffloadBegin, 0, 0, 1),
      ev(1'234'567, FK::kKernelBegin, 0, 0, 1),
      ev(2'000'000, FK::kKernelEnd, 0, 0, 1),
      ev(2'100'000, FK::kOffloadEnd, 0, 0, 1),
      ev(3'000'000'000'001, FK::kTaskEnd, 0, 0)};
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 1;
  RankObservation& r = run.ranks.emplace_back();
  r.rank = 4;
  r.trace = std::make_shared<const std::vector<Span>>(build_spans(log));
  r.skeleton = std::make_shared<const TaskGraphInfo>(g);
  std::ostringstream os;
  write_chrome_trace(os, run);
  const std::string trace = os.str();

  expect_spans_as_the_generic_writer_writes_them(trace, r);
  for (const std::string& name :
       {node.label, g.messages[0].label, "cpe_stall " + node.label})
    EXPECT_NE(trace.find("{\"name\":\"" + JsonWriter::escape(name) + "\","),
              std::string::npos)
        << name;
  // The task lasts 3000000.000001 us, one digit more than %.12g keeps.
  EXPECT_NE(trace.find("\"dur\":3000000,"), std::string::npos);
}

TEST(ChromeTrace, NamesLongerThanTheBufferStayWhole) {
  // A task label longer than JsonWriter's buffer takes the span writer's
  // long-name path; its spans must still be what the generic writer writes.
  TaskGraphInfo g;
  TaskNodeInfo node;
  node.name = std::string(JsonWriter::kBufferBytes + 100, 'x') + "\"";
  node.label = node.name + " p1";
  node.patch = 1;
  g.tasks = {node, TaskNodeInfo{"short", "short p2", 2, {}}};
  const std::vector<FlightEvent> log = {
      ev(0, FK::kTaskBegin, 0, 0),        ev(10, FK::kOffloadBegin, 0, 0, 0),
      ev(20, FK::kKernelBegin, 0, 0, 0),  ev(30, FK::kKernelEnd, 0, 0, 0),
      ev(40, FK::kOffloadEnd, 0, 0, 0),   ev(50, FK::kTaskEnd, 0, 0),
      ev(60, FK::kTaskBegin, 0, 1),       ev(70, FK::kTaskEnd, 0, 1),
      ev(80, FK::kTaskBegin, 1, 0),       ev(90, FK::kTaskEnd, 1, 0)};
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 2;
  RankObservation& r = run.ranks.emplace_back();
  r.rank = 0;
  r.trace = std::make_shared<const std::vector<Span>>(build_spans(log));
  r.skeleton = std::make_shared<const TaskGraphInfo>(g);
  std::ostringstream os;
  write_chrome_trace(os, run);
  expect_spans_as_the_generic_writer_writes_them(os.str(), r);
}

TEST(ChromeTrace, EachSkeletonGroupAndAttemptGetsItsOwnFragment) {
  // Spans that share a fragment table entry, a task's, still differ in
  // what they print: a kernel on group 0 or 1 (tid and cpe_group), a
  // retry's attempt (not printed), and step -1 against the init skeleton
  // (another label and patch).
  TaskGraphInfo init;
  init.tasks = {TaskNodeInfo{"init_a", "init_a p7", 7, {}}};
  TaskGraphInfo step;
  step.tasks = {TaskNodeInfo{"a", "a p3", 3, {}}};
  const std::vector<FlightEvent> log = {
      ev(0, FK::kTaskBegin, -1, 0),        ev(5, FK::kTaskEnd, -1, 0),
      ev(10, FK::kTaskBegin, 0, 0),        ev(20, FK::kKernelBegin, 0, 0, 0),
      ev(30, FK::kKernelEnd, 0, 0, 0),     ev(40, FK::kKernelBegin, 0, 0, 1),
      ev(50, FK::kKernelEnd, 0, 0, 1),     ev(60, FK::kOffloadRetry, 0, 0, 1),
      ev(70, FK::kBackoffEnd, 0, 0, 1),    ev(80, FK::kOffloadRetry, 0, 0, 2),
      ev(90, FK::kBackoffEnd, 0, 0, 2),    ev(100, FK::kKernelBegin, 0, 0, 1),
      ev(110, FK::kKernelEnd, 0, 0, 1),    ev(120, FK::kTaskEnd, 0, 0)};
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 1;
  RankObservation& r = run.ranks.emplace_back();
  r.rank = 2;
  r.trace = std::make_shared<const std::vector<Span>>(build_spans(log));
  r.skeleton = std::make_shared<const TaskGraphInfo>(step);
  r.init_skeleton = std::make_shared<const TaskGraphInfo>(init);
  std::ostringstream os;
  write_chrome_trace(os, run);
  const std::string trace = os.str();
  expect_spans_as_the_generic_writer_writes_them(trace, r);
  EXPECT_NE(trace.find(R"("cpe_group":1)"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"init_a p7")"), std::string::npos);
}

TEST(ChromeTrace, EmptyObservationProducesBalancedJson) {
  // A trace with zero spans (tracing off, or a 0-step run) must still
  // export structurally valid JSON, not crash or emit dangling commas.
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 0;
  run.ranks.emplace_back();
  std::ostringstream os;
  write_chrome_trace(os, run);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['), std::count(j.begin(), j.end(), ']'));
}

TEST(Report, ZeroSpanObservationDoesNotCrash) {
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 0;
  run.ranks.emplace_back();
  std::ostringstream os;
  print_report(os, build_metrics(run));
  EXPECT_NE(os.str().find("Run totals"), std::string::npos);
}

// ---------------------------------------------------------- host profile ---

TEST(HostProfile, EmptyProfilePrintsPlaceholder) {
  const MetricsRegistry host;
  std::ostringstream os;
  print_host_profile(os, host);
  EXPECT_NE(os.str().find("(no host samples)"), std::string::npos);
  EXPECT_NE(os.str().find("machine-dependent"), std::string::npos);
}

TEST(HostProfile, SingleSamplePercentilesDegenerate) {
  // One sample: every percentile must equal it (no interpolation blowups).
  MetricsRegistry host;
  host.sample("host.step_ms", 4.0);
  host.count("host.run_ms", 9.5);
  std::ostringstream os;
  print_host_profile(os, host);
  const std::string out = os.str();
  EXPECT_NE(out.find("host.step_ms"), std::string::npos);
  EXPECT_NE(out.find("host.run_ms"), std::string::npos);
  const Distribution* d = host.distribution("host.step_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->pct(0), 4.0);
  EXPECT_DOUBLE_EQ(d->pct(50), 4.0);
  EXPECT_DOUBLE_EQ(d->pct(95), 4.0);
  EXPECT_DOUBLE_EQ(d->pct(100), 4.0);
}

TEST(HostProfile, JsonEmptyIsEmptyObjectFilledHasStats) {
  MetricsRegistry host;
  {
    std::ostringstream os;
    JsonWriter w(os, 0);
    write_host_profile_json(w, host);
    EXPECT_EQ(os.str(), "{}");
  }
  host.sample("host.step_ms", 1.0);
  host.sample("host.step_ms", 3.0);
  {
    std::ostringstream os;
    JsonWriter w(os, 0);
    write_host_profile_json(w, host);
    EXPECT_NE(os.str().find("\"host.step_ms\""), std::string::npos);
    EXPECT_NE(os.str().find("\"count\":2"), std::string::npos);
    EXPECT_NE(os.str().find("\"p95\""), std::string::npos);
  }
}

// ----------------------------------------------------------- end to end ---

runtime::RunResult run_burgers(const char* variant) {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({4, 4, 2}, {16, 16, 16});
  config.variant = runtime::variant_by_name(variant);
  config.nranks = 8;
  config.timesteps = 2;
  config.storage = var::StorageMode::kTimingOnly;
  config.collect_trace = true;
  config.collect_metrics = true;
  apps::burgers::BurgersApp app;
  return runtime::run_simulation(config, app);
}

TEST(EndToEnd, AsyncOverlapBeatsSync) {
  const MetricsReport sync_m =
      build_metrics(runtime::observe(run_burgers("acc.sync")));
  const MetricsReport async_m =
      build_metrics(runtime::observe(run_burgers("acc.async")));
  EXPECT_GT(async_m.overlap_efficiency, sync_m.overlap_efficiency);
  EXPECT_GT(sync_m.overlap_efficiency, 0.0);
  EXPECT_LT(async_m.overlap_efficiency, 1.0);
}

TEST(EndToEnd, CriticalPathBoundedByWall) {
  const runtime::RunResult result = run_burgers("acc.async");
  const MetricsReport m = build_metrics(runtime::observe(result));
  ASSERT_EQ(m.steps.size(), static_cast<std::size_t>(result.timesteps));
  for (int s = 0; s < result.timesteps; ++s) {
    EXPECT_GT(m.steps[static_cast<std::size_t>(s)].critical_path, 0);
    EXPECT_LE(m.steps[static_cast<std::size_t>(s)].critical_path, result.step_wall(s));
  }
  EXPECT_GT(m.critical_chain.total, 0);
  EXPECT_LE(m.critical_chain.total, m.critical_chain.makespan);
}

TEST(EndToEnd, ExportsMatchGoldenFiles) {
  // Both exports of a fixed small run, byte for byte: any change to span
  // pairing, the rollups, the critical path or number formatting shows
  // here. Regenerate the files only for a deliberate format change.
  const RunObservation run = runtime::observe(run_burgers("acc.async"));
  std::ostringstream metrics;
  write_metrics_json(metrics, build_metrics(run));
  std::ostringstream trace;
  write_chrome_trace(trace, run);
  const std::string want_metrics =
      slurp(USW_TEST_DATA_DIR "/obs_burgers8_metrics.json");
  const std::string want_trace = slurp(USW_TEST_DATA_DIR "/obs_burgers8_trace.json");
  ASSERT_FALSE(want_trace.empty());
  EXPECT_TRUE(metrics.str() == want_metrics) << first_difference(metrics.str(), want_metrics);
  EXPECT_TRUE(trace.str() == want_trace) << first_difference(trace.str(), want_trace);
}

/// The faulted two-group golden run, observed: the RunConfig that
///   uswsim --app=burgers --layout=2x2x1 --patch=16x16x16 --ranks=2
///     --steps=3 --variant=acc_simd.async --timing-only --cpe-groups=2
///     --inject=cpe_stall:p=0.2,offload_fail:p=0.2
/// builds, traced and with metrics.
RunObservation faulted_two_group_run() {
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
  config.variant = runtime::variant_by_name("acc_simd.async");
  config.nranks = 2;
  config.timesteps = 3;
  config.storage = var::StorageMode::kTimingOnly;
  config.cpe_groups = 2;
  config.faults = fault::FaultPlan::parse("cpe_stall:p=0.2,offload_fail:p=0.2", 1);
  config.collect_trace = true;
  config.collect_metrics = true;
  return runtime::observe(runtime::run_simulation(config, apps::burgers::BurgersApp()));
}

TEST(EndToEnd, FaultedTwoGroupExportsMatchGoldenFiles) {
  // The paths the burgers8 golden never takes: fault span names, retry
  // backoff, the cpe_group member and a second CPE track. The files were
  // written by faulted_two_group_run()'s uswsim command with
  //     --trace-json=obs_burgers_faults_trace.json
  //     --metrics-json=obs_burgers_faults_metrics.json
  const RunObservation run = faulted_two_group_run();
  std::ostringstream metrics;
  write_metrics_json(metrics, build_metrics(run));
  std::ostringstream trace;
  write_chrome_trace(trace, run);
  const std::string want_metrics =
      slurp(USW_TEST_DATA_DIR "/obs_burgers_faults_metrics.json");
  const std::string want_trace = slurp(USW_TEST_DATA_DIR "/obs_burgers_faults_trace.json");
  ASSERT_FALSE(want_trace.empty());
  EXPECT_TRUE(metrics.str() == want_metrics) << first_difference(metrics.str(), want_metrics);
  EXPECT_TRUE(trace.str() == want_trace) << first_difference(trace.str(), want_trace);
  for (const char* covered : {"\"retry backoff\"", "\"name\":\"cpe_stall ",
                              "\"name\":\"offload_fail ", "\"cpe_group\":1",
                              "\"CPE group 1\""})
    EXPECT_NE(want_trace.find(covered), std::string::npos) << covered;
}

TEST(EndToEnd, CriticalChainIsTheFirstSlowestStep) {
  // build_metrics keeps the whole chain of the step with the largest wall,
  // the first of equal walls, for the report to print.
  const MetricsReport m = build_metrics(faulted_two_group_run());
  ASSERT_EQ(m.steps.size(), 3u);
  std::size_t slowest = 0;
  for (std::size_t s = 1; s < m.steps.size(); ++s)
    if (m.steps[s].wall > m.steps[slowest].wall) slowest = s;
  EXPECT_EQ(m.critical_chain.step, m.steps[slowest].step);
  EXPECT_EQ(m.critical_chain.total, m.steps[slowest].critical_path);
  EXPECT_FALSE(m.critical_chain.chain.empty());
}

TEST(EndToEnd, ReplayedStepIsCountedOnce) {
  // Every step misses a 1 us deadline, so step 1 is restarted from its
  // checkpoint twice (max_restarts) before it commits. The per-step and
  // per-task rollups and the critical path read each step's committed
  // attempt only; the Chrome trace keeps every attempt.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "usw_obs_replay_ckpt").string();
  std::filesystem::remove_all(dir);
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
  config.nranks = 2;
  config.timesteps = 4;
  config.output_dir = dir;
  config.output_interval = 1;
  config.recovery.step_deadline = kMicrosecond;
  config.recovery.max_restarts = 2;
  config.collect_trace = true;
  config.collect_metrics = true;
  const runtime::RunResult result =
      runtime::run_simulation(config, apps::burgers::BurgersApp());
  std::filesystem::remove_all(dir);
  ASSERT_EQ(result.merged_counters().fault_restarts, 2u * 2u);
  const RunObservation run = runtime::observe(result);
  const MetricsReport m = build_metrics(run);
  ASSERT_EQ(m.steps.size(), 4u);
  ASSERT_GT(m.steps[0].messages, 0u);
  for (const StepMetrics& s : m.steps) {
    EXPECT_EQ(s.messages, m.steps[0].messages) << "step " << s.step;
    EXPECT_EQ(s.message_bytes, m.steps[0].message_bytes) << "step " << s.step;
    EXPECT_EQ(s.kernel, m.steps[0].kernel) << "step " << s.step;
    EXPECT_EQ(s.critical_path, m.steps[0].critical_path) << "step " << s.step;
    EXPECT_EQ(s.wall, result.step_wall(s.step)) << "step " << s.step;
  }
  ASSERT_FALSE(m.tasks.empty());
  for (const TaskMetrics& t : m.tasks)
    EXPECT_EQ(t.executions, 4u * 4u) << t.name;  // 4 patches, 4 steps
  std::size_t spans = 0;
  std::size_t rolled_back = 0;
  TimePs flight = 0;  // every attempt's timestep message flight
  for (const RankObservation& r : run.ranks)
    for (const Span& s : r.spans()) {
      ++spans;
      if (s.kind() == SpanKind::kSend && s.step >= 0) flight += s.duration();
      if (!s.rolled_back) continue;
      ++rolled_back;
      EXPECT_EQ(s.step, 1);
    }
  EXPECT_GT(rolled_back, 0u);
  // The bandwidth's bytes count every attempt, and so does its flight time.
  EXPECT_DOUBLE_EQ(m.message_bandwidth_gbs,
                   static_cast<double>(result.merged_counters().bytes_sent) /
                       ps_to_seconds(flight) * 1e-9);
  std::ostringstream trace;
  write_chrome_trace(trace, run);
  std::size_t exported = 0;
  for (std::size_t at = 0; (at = trace.str().find("\"ph\":\"X\"", at)) != std::string::npos; ++at)
    ++exported;
  EXPECT_EQ(exported, spans);
}

TEST(EndToEnd, RestartedRunReportsItsAbsoluteSteps) {
  // A run restarted from archive step 2 executes steps 2, 3 and 4. Its
  // per-step rows carry those steps and match steps 2-4 of a
  // straight-through run: the rollups index each span's absolute step
  // from the run's first step, as the walls are indexed.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "usw_obs_restart_steps").string();
  std::filesystem::remove_all(dir);
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
  config.nranks = 2;
  const apps::burgers::BurgersApp app;
  runtime::RunConfig first = config;
  first.timesteps = 4;
  first.output_dir = dir;
  first.output_interval = 2;
  (void)runtime::run_simulation(first, app);
  config.collect_trace = true;
  config.collect_metrics = true;
  runtime::RunConfig straight = config;
  straight.timesteps = 5;
  const MetricsReport whole =
      build_metrics(runtime::observe(runtime::run_simulation(straight, app)));
  config.timesteps = 3;
  config.restart_dir = dir;
  config.restart_step = 2;
  const runtime::RunResult resumed = runtime::run_simulation(config, app);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(resumed.first_step, 2);
  const MetricsReport m = build_metrics(runtime::observe(resumed));
  ASSERT_EQ(m.steps.size(), 3u);
  ASSERT_EQ(whole.steps.size(), 5u);
  for (std::size_t i = 0; i < m.steps.size(); ++i) {
    const StepMetrics& s = m.steps[i];
    const StepMetrics& want = whole.steps[i + 2];
    EXPECT_EQ(s.step, want.step);
    EXPECT_GT(s.critical_path, 0) << "step " << s.step;
    EXPECT_GT(s.messages, 0u) << "step " << s.step;
    EXPECT_EQ(s.messages, want.messages) << "step " << s.step;
    EXPECT_EQ(s.message_bytes, want.message_bytes) << "step " << s.step;
    EXPECT_EQ(s.kernel, want.kernel) << "step " << s.step;
    EXPECT_EQ(s.wall, resumed.step_wall(static_cast<int>(i))) << "step " << s.step;
  }
}

TEST(EndToEnd, MetricsCountFaultsOfEveryLayer) {
  // The fault.* counters and the report's fault fields, which the
  // Resilience table prints, come from the merged PerfCounters, so message
  // and CPE DMA faults count like the scheduler's own. Counters that stay
  // zero are not emitted.
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({2, 2, 1}, {16, 16, 16});
  config.variant = runtime::variant_by_name("acc_simd.async");
  config.nranks = 2;
  config.timesteps = 4;
  config.faults = fault::FaultPlan::parse("msg_loss:p=0.2,dma_error:p=0.2", 1);
  config.collect_metrics = true;
  const runtime::RunResult faulted =
      runtime::run_simulation(config, apps::burgers::BurgersApp());
  const hw::PerfCounters sum = faulted.merged_counters();
  ASSERT_GT(sum.fault_injected, 0u);
  ASSERT_GT(sum.fault_retries, 0u);
  const MetricsReport m = build_metrics(runtime::observe(faulted));
  EXPECT_EQ(m.registry.counters().at("fault.injected"),
            static_cast<double>(sum.fault_injected));
  EXPECT_EQ(m.registry.counters().at("fault.retries"),
            static_cast<double>(sum.fault_retries));
  EXPECT_EQ(m.registry.counters().count("fault.degraded"), 0u);
  EXPECT_EQ(m.registry.counters().count("fault.restarts"), 0u);
  EXPECT_EQ(m.fault_injected, sum.fault_injected);
  EXPECT_EQ(m.fault_retries, sum.fault_retries);
  EXPECT_EQ(m.fault_degraded, 0u);
  EXPECT_EQ(m.fault_restarts, 0u);

  config.faults = fault::FaultPlan{};
  const MetricsReport clean = build_metrics(runtime::observe(
      runtime::run_simulation(config, apps::burgers::BurgersApp())));
  for (const auto& [name, value] : clean.registry.counters())
    EXPECT_NE(name.rfind("fault.", 0), 0u) << name << " = " << value;
  EXPECT_EQ(clean.fault_injected + clean.fault_retries + clean.fault_degraded +
                clean.fault_restarts,
            0u);
}

TEST(EndToEnd, InitSpansAreNamedFromTheKeptInitSkeleton) {
  // A traced run keeps each rank's init skeleton beside its step skeleton,
  // and the exporters name the initialization spans from it: Burgers'
  // init graph runs only "initialize", its step graph never does.
  const runtime::RunResult result = run_burgers("acc.async");
  const RunObservation run = runtime::observe(result);
  std::size_t init_tasks = 0;
  for (const RankObservation& r : run.ranks) {
    ASSERT_NE(r.init_skeleton, nullptr);
    EXPECT_EQ(r.init_skeleton, result.ranks[static_cast<std::size_t>(r.rank)].init_graph_info);
    SpanResolver resolve = r.resolver();
    for (const Span& s : r.spans()) {
      if (s.kind() != SpanKind::kTask) continue;
      const std::string& name = resolve.names()[resolve.name(s)];
      EXPECT_EQ(name.rfind("initialize p", 0) == 0, s.step < 0) << name;
      if (s.step < 0) ++init_tasks;
    }
  }
  EXPECT_EQ(init_tasks, 32u);  // one per patch
  std::ostringstream trace;
  write_chrome_trace(trace, run);
  EXPECT_NE(trace.str().find(R"({"name":"initialize p0","cat":"task")"), std::string::npos);
}

TEST(EndToEnd, UnsampledDistributionsGetNoEntry) {
  // The scheduler takes a metric's handle at its first sample: an MPE-only
  // run offloads nothing, so it has message sizes but no offload entries.
  const MetricsReport m = build_metrics(runtime::observe(run_burgers("host.sync")));
  EXPECT_NE(m.registry.distribution("msg.send_bytes"), nullptr);
  EXPECT_NE(m.registry.distribution("msg.recv_bytes"), nullptr);
  for (const char* name : {"offload.cells", "tile.cells", "offload.cpe_busy_max_ps",
                           "offload.cpe_busy_mean_ps", "offload.cpe_idle_frac",
                           "offload.cpe_imbalance"})
    EXPECT_EQ(m.registry.distribution(name), nullptr) << name;
}

TEST(EndToEnd, GoldenFailuresNameTheFirstDifferingByte) {
  EXPECT_EQ(first_difference("abc\ndef", "abc\nxef"),
            "first difference at byte 4 (got 7 bytes, want 7 bytes)\n"
            "  got:  ...abc\\ndef...\n  want: ...abc\\nxef...");
  EXPECT_NE(first_difference("ab", "abc").find("at byte 2 (got 2 bytes, want 3 bytes)"),
            std::string::npos);
  EXPECT_NE(first_difference("\x01", "").find("got:  ...\\x01..."), std::string::npos);
}

TEST(EndToEnd, SchedulerFeedsRegistry) {
  const MetricsReport m = build_metrics(runtime::observe(run_burgers("acc.async")));
  ASSERT_NE(m.registry.distribution("msg.send_bytes"), nullptr);
  ASSERT_NE(m.registry.distribution("tile.cells"), nullptr);
  ASSERT_NE(m.registry.distribution("offload.cells"), nullptr);
  EXPECT_GT(m.registry.distribution("msg.send_bytes")->stats.count(), 0u);
  // Spans paired for every rank; sends carry their sizes.
  EXPECT_GT(m.steps.at(0).messages, 0u);
  EXPECT_GT(m.steps.at(0).message_bytes, 0u);
}

}  // namespace
}  // namespace usw::obs
