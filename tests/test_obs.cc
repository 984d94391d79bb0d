// Tests for the observability layer: span pairing, JSON writing, the
// Chrome-trace exporter, metrics rollups, critical-path analysis, and the
// end-to-end properties the paper's evaluation relies on (async variants
// show higher overlap efficiency than synchronous ones; the critical path
// never exceeds the measured wall).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "apps/burgers/burgers_app.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/host_profile.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "runtime/controller.h"
#include "runtime/observe.h"

namespace usw::obs {
namespace {

using sim::EventIds;
using sim::EventKind;

// ---------------------------------------------------------------- spans ---

TEST(Span, PairsBeginEnd) {
  sim::Trace t;
  t.enable(true);
  t.record(10, EventKind::kTaskBegin, "a p0", EventIds{0, 0, 0, -1, -1, -1, 0});
  t.record(50, EventKind::kTaskEnd, "a p0", EventIds{0, 0, 0, -1, -1, -1, 0});
  const std::vector<Span> spans = build_spans(t, 3);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kTask);
  EXPECT_EQ(spans[0].lane, Lane::kMpe);
  EXPECT_EQ(spans[0].begin, 10);
  EXPECT_EQ(spans[0].end, 50);
  EXPECT_EQ(spans[0].duration(), 40);
  EXPECT_EQ(spans[0].rank, 3);
  EXPECT_EQ(spans[0].name, "a p0");
}

TEST(Span, InterleavedSameKindPairsById) {
  // Two offloads in flight at once (cpe_groups = 2): ends arrive in the
  // opposite order of the begins, distinguished only by the ids.
  sim::Trace t;
  t.enable(true);
  t.record(0, EventKind::kKernelBegin, "k p0", EventIds{0, 0, 0, -1, -1, 0, 0});
  t.record(10, EventKind::kKernelBegin, "k p1", EventIds{0, 1, 1, -1, -1, 1, 0});
  t.record(30, EventKind::kKernelEnd, "k p1", EventIds{0, 1, 1, -1, -1, 1, 0});
  t.record(80, EventKind::kKernelEnd, "k p0", EventIds{0, 0, 0, -1, -1, 0, 0});
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].lane, Lane::kCpe);
  EXPECT_EQ(spans[0].end - spans[0].begin, 80);  // p0: [0,80]
  EXPECT_EQ(spans[1].end - spans[1].begin, 20);  // p1: [10,30]
}

TEST(Span, OutOfOrderEndRecordedAhead) {
  // The scheduler records a kernel's end at its future completion time
  // immediately after the begin; later events carry earlier stamps.
  sim::Trace t;
  t.enable(true);
  t.record(10, EventKind::kKernelBegin, "k", EventIds{0, 0, 0, -1, -1, 0, 0});
  t.record(90, EventKind::kKernelEnd, "k", EventIds{0, 0, 0, -1, -1, 0, 0});
  t.record(20, EventKind::kTaskBegin, "m", EventIds{0, 1, 1, -1, -1, -1, 0});
  t.record(40, EventKind::kTaskEnd, "m", EventIds{0, 1, 1, -1, -1, -1, 0});
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kKernel);
  EXPECT_EQ(spans[0].duration(), 80);
  EXPECT_EQ(spans[1].duration(), 20);
}

TEST(Span, UnmatchedEndDroppedUnmatchedBeginClosed) {
  sim::Trace t;
  t.enable(true);
  t.record(5, EventKind::kWaitEnd, "stray");
  t.record(10, EventKind::kWaitBegin, "idle", EventIds{0, -1, -1, -1, -1, -1, 0});
  t.record(70, EventKind::kTaskBegin, "late", EventIds{0, 0, 0, -1, -1, -1, 0});
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 2u);
  // The wait never ended: closed at the last stamp in the trace.
  EXPECT_EQ(spans[0].kind, SpanKind::kWait);
  EXPECT_EQ(spans[0].end, 70);
}

TEST(Span, KeyReusedAfterCloseOpensFreshSpan) {
  // The same (kind, ids, label) recurs after its first span closed: the
  // second begin must not pair with the first span's end.
  sim::Trace t;
  t.enable(true);
  const EventIds ids{0, 2, 1, -1, -1, -1, 0};
  t.record(10, EventKind::kTaskBegin, "a p1", ids);
  t.record(20, EventKind::kTaskEnd, "a p1", ids);
  t.record(30, EventKind::kTaskBegin, "a p1", ids);
  t.record(55, EventKind::kTaskEnd, "a p1", ids);
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 10);
  EXPECT_EQ(spans[0].end, 20);
  EXPECT_EQ(spans[1].begin, 30);
  EXPECT_EQ(spans[1].end, 55);
}

TEST(Span, NestedSameKeySpansCloseLifo) {
  sim::Trace t;
  t.enable(true);
  const EventIds ids{0, 0, 0, -1, -1, -1, 0};
  t.record(0, EventKind::kReduceBegin, "r", ids);
  t.record(10, EventKind::kReduceBegin, "r", ids);
  t.record(20, EventKind::kReduceEnd, "r", ids);  // closes the inner one
  t.record(40, EventKind::kReduceEnd, "r", ids);
  t.record(45, EventKind::kReduceEnd, "r", ids);  // nothing open: dropped
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 0);
  EXPECT_EQ(spans[0].end, 40);
  EXPECT_EQ(spans[1].begin, 10);
  EXPECT_EQ(spans[1].end, 20);
}

TEST(Span, LabelOnlyPairingWithDefaultIds) {
  // Hand-written traces carry no ids: the label alone tells spans apart,
  // and a different label of the same kind never closes the open one.
  sim::Trace t;
  t.enable(true);
  t.record(0, EventKind::kWaitBegin, "x");
  t.record(5, EventKind::kWaitBegin, "y");
  t.record(10, EventKind::kWaitEnd, "x");
  t.record(30, EventKind::kWaitEnd, "y");
  t.record(35, EventKind::kWaitEnd, "z");  // never opened: dropped
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "x");
  EXPECT_EQ(spans[0].end, 10);
  EXPECT_EQ(spans[1].name, "y");
  EXPECT_EQ(spans[1].end, 30);
  EXPECT_EQ(spans[0].ids.step, -1);
}

TEST(Span, SendCarriesBytesAndMpiLane) {
  sim::Trace t;
  t.enable(true);
  t.record(10, EventKind::kSendPosted, "u p0->p2", EventIds{1, 4, 0, 1, 7, -1, 2048});
  t.record(60, EventKind::kSendDone, "u p0->p2", EventIds{1, 4, 0, 1, 7, -1, 2048});
  const std::vector<Span> spans = build_spans(t, 0);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].lane, Lane::kMpi);
  EXPECT_EQ(spans[0].ids.bytes, 2048u);
  EXPECT_EQ(spans[0].ids.peer, 1);
  EXPECT_EQ(spans[0].ids.tag, 7);
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

// ------------------------------------------------------------- registry ---

TEST(MetricsRegistry, CountersAndDistributions) {
  MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  r.count("msgs");
  r.count("msgs", 2.0);
  r.sample("bytes", 100.0);
  r.sample("bytes", 300.0);
  EXPECT_DOUBLE_EQ(r.counter("msgs"), 3.0);
  EXPECT_DOUBLE_EQ(r.counter("absent"), 0.0);
  ASSERT_NE(r.distribution("bytes"), nullptr);
  EXPECT_EQ(r.distribution("bytes")->stats.count(), 2u);
  EXPECT_DOUBLE_EQ(r.distribution("bytes")->pct(50), 200.0);
  EXPECT_EQ(r.distribution("absent"), nullptr);
}

TEST(MetricsRegistry, MergeAddsAndConcatenates) {
  MetricsRegistry a, b;
  a.count("c", 1.0);
  a.sample("d", 1.0);
  b.count("c", 2.0);
  b.sample("d", 3.0);
  b.sample("e", 5.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter("c"), 3.0);
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
  auto span = [](TimePs b, TimePs e, SpanKind k, EventIds ids, std::string name) {
    Span s;
    s.begin = b;
    s.end = e;
    s.kind = k;
    s.lane = lane_of(k);
    s.rank = 0;
    s.ids = ids;
    s.name = std::move(name);
    return s;
  };
  r.spans.push_back(span(0, 90, SpanKind::kTask, EventIds{0, 0, 0, -1, -1, -1, 0}, "a p0"));
  r.spans.push_back(span(90, 250, SpanKind::kTask, EventIds{0, 1, 0, -1, -1, -1, 0}, "b p0"));
  r.spans.push_back(span(100, 200, SpanKind::kKernel, EventIds{0, 1, 0, -1, -1, 0, 0}, "b p0"));
  r.spans.push_back(span(0, 50, SpanKind::kWait, EventIds{0, -1, -1, -1, -1, -1, 0}, "idle"));
  r.spans.push_back(span(10, 30, SpanKind::kSend, EventIds{0, 0, 0, 0, 9, -1, 1024}, "u"));
  TaskNodeInfo a;
  a.name = "a";
  a.patch = 0;
  a.successors = {1};
  TaskNodeInfo b;
  b.name = "b";
  b.patch = 0;
  r.graph.tasks = {a, b};
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
  const CriticalPathReport cp = analyze_critical_path(tiny_run(), 0);
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
    s.kind = SpanKind::kTask;
    s.lane = Lane::kMpe;
    s.rank = rank;
    s.ids = EventIds{0, 0, rank, -1, -1, -1, 0};
    if (rank == 0) {
      s.begin = 0;
      s.end = 100;
      s.name = "prod";
    } else {
      s.begin = 150;
      s.end = 250;
      s.name = "cons";
    }
    r.spans.push_back(s);
    TaskNodeInfo node;
    node.name = rank == 0 ? "prod" : "cons";
    node.patch = rank;
    if (rank == 0)
      node.send_keys.emplace_back(1, 5);
    else
      node.recv_keys.emplace_back(0, 5);
    r.graph.tasks = {node};
    r.step_walls = {250};
    run.ranks.push_back(std::move(r));
  }
  const CriticalPathReport cp = analyze_critical_path(run, 0);
  EXPECT_EQ(cp.total, 200);
  EXPECT_EQ(cp.makespan, 250);
  ASSERT_EQ(cp.chain.size(), 2u);
  EXPECT_EQ(cp.chain[0].rank, 0);
  EXPECT_EQ(cp.chain[1].rank, 1);
  EXPECT_LE(cp.total, cp.makespan);
}

TEST(CriticalPath, EmptyWithoutSpans) {
  RunObservation run;
  run.nranks = 1;
  run.timesteps = 1;
  run.ranks.emplace_back();
  const CriticalPathReport cp = analyze_critical_path(run, 0);
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
  print_report(os, build_metrics(run), run);
  const std::string out = os.str();
  EXPECT_NE(out.find("Run totals"), std::string::npos);
  EXPECT_NE(out.find("Per-timestep breakdown"), std::string::npos);
  EXPECT_NE(out.find("Critical chain"), std::string::npos);
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
  print_report(os, build_metrics(run), run);
  EXPECT_NE(os.str().find("Run totals"), std::string::npos);
}

// ---------------------------------------------------------- host profile ---

TEST(HostProfile, EmptyProfilePrintsPlaceholder) {
  HostProfile host;
  std::ostringstream os;
  print_host_profile(os, host);
  EXPECT_NE(os.str().find("(no host samples)"), std::string::npos);
  EXPECT_NE(os.str().find("machine-dependent"), std::string::npos);
}

TEST(HostProfile, SingleSamplePercentilesDegenerate) {
  // One sample: every percentile must equal it (no interpolation blowups).
  HostProfile host;
  host.enabled = true;
  host.reg.sample("host.step_ms", 4.0);
  host.reg.count("host.run_ms", 9.5);
  std::ostringstream os;
  print_host_profile(os, host);
  const std::string out = os.str();
  EXPECT_NE(out.find("host.step_ms"), std::string::npos);
  EXPECT_NE(out.find("host.run_ms"), std::string::npos);
  const Distribution* d = host.reg.distribution("host.step_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->pct(0), 4.0);
  EXPECT_DOUBLE_EQ(d->pct(50), 4.0);
  EXPECT_DOUBLE_EQ(d->pct(95), 4.0);
  EXPECT_DOUBLE_EQ(d->pct(100), 4.0);
}

TEST(HostProfile, JsonDisabledIsEmptyObjectEnabledHasStats) {
  HostProfile host;
  host.reg.sample("host.step_ms", 1.0);  // present but disabled: omitted
  {
    std::ostringstream os;
    JsonWriter w(os, 0);
    write_host_profile_json(w, host);
    EXPECT_EQ(os.str(), "{}");
  }
  host.enabled = true;
  host.reg.sample("host.step_ms", 3.0);
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
  const RunObservation run = runtime::observe(result);
  for (int s = 0; s < result.timesteps; ++s) {
    const CriticalPathReport cp = analyze_critical_path(run, s);
    EXPECT_GT(cp.total, 0);
    EXPECT_LE(cp.total, cp.makespan);
    EXPECT_LE(cp.total, result.step_wall(s));
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
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
  EXPECT_TRUE(metrics.str() == want_metrics) << metrics.str();
  EXPECT_EQ(trace.str().size(), want_trace.size());
  EXPECT_TRUE(trace.str() == want_trace);
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
