// Per-layer host-time probes for usw_e2e_traced.
//
// Each USW_PROBE line below wraps one public entry point of a src/ layer.
// CMakeLists.txt reads the mangled symbols from this table and links with
// -Wl,--wrap=<symbol>, so every call that crosses an object-file boundary
// lands in __wrap_<symbol>, which times it and forwards to __real_<symbol>.
// Calls inside the defining object are not wrapped; that is the point: the
// probes sit on layer boundaries. src/ is not modified.
//
// `__real_<symbol>` is declared weak, so a change that renames or removes a
// wrapped function still links: its wrapper is never called, and the report
// shows the probe with `linked: false` and no calls.
//
// Self time. Probes nest through a thread-local stack of frames. A frame's
// self time is its own duration minus the part its probed children cover.
// Clocks (a CLOCK_THREAD_CPUTIME_ID read costs several times a
// CLOCK_MONOTONIC read, so only calls that can block pay for it):
//   kCpu     calls that can block (a rank parks on the coordinator) read the
//            thread-CPU clock, so time other ranks run while this one waits
//            is not charged to it. They also read the monotonic clock so the
//            parent can subtract the interval they covered.
//   kWall    non-blocking calls read only CLOCK_MONOTONIC. That equals CPU
//            time because the benchmark pins the process to one core and the
//            serial coordinator runs one granted rank at a time. A blocking
//            probed child inside is subtracted by its wall interval and
//            added back by its CPU time.
//   kSampled hot leaves (clock advances and notifies, DMA, flight-ring
//            records) are counted on every call
//            but timed on 1 in kSampleEvery calls. The untimed calls' time is
//            estimated from the timed mean and moved from the enclosing
//            layer to this one when the report is written.

#include "probes.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <span>
#include <vector>

#include "sched/scheduler.h"

namespace e2e {
namespace {

enum Layer : int { kSim, kComm, kSched, kAthread, kDma, kObs, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"sim",     "comm", "sched",
                                                 "athread", "dma",  "obs"};
/// Parent slot for calls made outside any probed frame.
constexpr int kNoParent = kNumLayers;

enum Clock : int { kCpu, kWall, kSampled };
constexpr std::uint64_t kSampleEvery = 16;
constexpr int kMaxProbes = 64;

struct Probe;

std::vector<const Probe*>& registry() {
  static std::vector<const Probe*> probes;
  return probes;
}

/// One wrapped entry point; registers itself during static initialisation.
struct Probe {
  Probe(const char* symbol_, const char* name_, Layer layer_, Clock clock_,
        bool linked_)
      : symbol(symbol_), name(name_), layer(layer_), clock(clock_),
        linked(linked_), id(static_cast<int>(registry().size())) {
    if (id >= kMaxProbes) {
      std::fputs("probes.cc: more USW_PROBE lines than kMaxProbes\n", stderr);
      std::abort();
    }
    registry().push_back(this);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  const char* symbol;
  const char* name;
  Layer layer;
  Clock clock;
  bool linked;  ///< false when the wrapped function no longer exists
  int id;
};

/// Per-probe accumulator; one set per thread, merged at thread exit.
struct Acc {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  std::int64_t self_ns = 0;
  /// kSampled only: untimed calls by the layer of the enclosing frame.
  std::array<std::uint64_t, kNumLayers + 1> untimed_in{};

  void add(const Acc& o) {
    calls += o.calls;
    timed += o.timed;
    self_ns += o.self_ns;
    for (std::size_t i = 0; i < untimed_in.size(); ++i) untimed_in[i] += o.untimed_in[i];
  }
};

std::mutex g_mu;
std::array<Acc, kMaxProbes> g_acc;  // guarded by g_mu

std::atomic<std::uint64_t> g_threads{0};

struct ThreadAcc {
  std::array<Acc, kMaxProbes> acc{};
  /// Offsets this thread's sampling so that threads making only a few calls
  /// each (1024 ranks) still time 1 in kSampleEvery calls between them.
  std::uint64_t phase = g_threads.fetch_add(1, std::memory_order_relaxed);
  ThreadAcc() = default;
  ThreadAcc(const ThreadAcc&) = delete;
  ThreadAcc& operator=(const ThreadAcc&) = delete;
  ~ThreadAcc() { flush(); }
  void flush() {
    const std::lock_guard<std::mutex> lock(g_mu);
    for (std::size_t i = 0; i < acc.size(); ++i) g_acc[i].add(acc[i]);
    acc = {};
  }
};

thread_local ThreadAcc t_acc;

std::int64_t now_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// What an empty timed frame measures: the clock reads themselves. It is
/// subtracted from every timed frame so that a ~10 ns leaf is not reported
/// as the ~25 ns a clock read costs. Medians of back-to-back reads made in
/// the order a frame makes them.
struct Bias {
  std::int64_t wall = 0;  ///< kWall / kSampled frame, monotonic interval
  std::int64_t cpu = 0;   ///< kCpu frame, thread-CPU interval
};

Bias measure_bias() {
  constexpr int kRounds = 2001;
  std::vector<std::int64_t> wall, cpu;
  for (int i = 0; i < kRounds; ++i) {
    const std::int64_t a = now_ns(CLOCK_MONOTONIC);
    wall.push_back(now_ns(CLOCK_MONOTONIC) - a);
    const std::int64_t b = now_ns(CLOCK_THREAD_CPUTIME_ID);
    now_ns(CLOCK_MONOTONIC);
    cpu.push_back(now_ns(CLOCK_THREAD_CPUTIME_ID) - b);
  }
  const auto median = [](std::vector<std::int64_t>& v) {
    std::nth_element(v.begin(), v.begin() + kRounds / 2, v.end());
    return v[kRounds / 2];
  };
  return Bias{median(wall), median(cpu)};
}

const Bias g_bias = measure_bias();

struct Frame;
thread_local Frame* t_top = nullptr;

/// One probed call in flight on this thread.
struct Frame {
  explicit Frame(const Probe& p) : probe(p), parent(t_top) {
    Acc& a = t_acc.acc[static_cast<std::size_t>(p.id)];
    ++a.calls;
    if (p.clock == kSampled && (a.calls + t_acc.phase) % kSampleEvery != 0) {
      a.untimed_in[static_cast<std::size_t>(parent != nullptr ? parent->probe.layer : kNoParent)] += 1;
      return;
    }
    timed = true;
    t_top = this;
    wall0 = now_ns(CLOCK_MONOTONIC);
    if (p.clock == kCpu) cpu0 = now_ns(CLOCK_THREAD_CPUTIME_ID);
  }

  ~Frame() {
    if (!timed) return;
    const std::int64_t wall = now_ns(CLOCK_MONOTONIC) - wall0;
    const std::int64_t cpu =
        probe.clock == kCpu
            ? now_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0 - g_bias.cpu
            : wall - g_bias.wall - child_wall + child_cpu;
    Acc& a = t_acc.acc[static_cast<std::size_t>(probe.id)];
    a.timed += 1;
    a.self_ns += cpu - child_cpu;
    if (parent != nullptr) {
      parent->child_wall += wall;
      parent->child_cpu += cpu;
    }
    t_top = parent;
  }

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  const Probe& probe;
  Frame* parent;
  bool timed = false;
  std::int64_t wall0 = 0;
  std::int64_t cpu0 = 0;
  std::int64_t child_wall = 0;  ///< monotonic interval covered by children
  std::int64_t child_cpu = 0;   ///< their CPU time, clock reads excluded
};

}  // namespace
}  // namespace e2e

// USW_PROBE(layer, clock, mangled symbol, readable name, return type,
//           parameter list, argument list). Member functions take `this`
// as their first parameter in the Itanium C++ ABI.
#define USW_PROBE(LAYER, CLOCK, SYM, NAME, RET, PARAMS, ARGS)            \
  extern "C" RET __real_##SYM PARAMS __attribute__((weak));             \
  namespace e2e {                                                       \
  namespace {                                                           \
  const Probe probe_##SYM(#SYM, NAME, LAYER, CLOCK, &__real_##SYM != nullptr); \
  }                                                                     \
  }                                                                     \
  extern "C" RET __wrap_##SYM PARAMS {                                  \
    const e2e::Frame frame(e2e::probe_##SYM);                           \
    return __real_##SYM ARGS;                                           \
  }

using IdSpan = std::span<const unsigned long>;
using Refresh = std::function<long()>;

// clang-format off
// sim: the coordinator's grant / park / handoff.
USW_PROBE(kSim, kSampled, _ZN3usw3sim11Coordinator7advanceEil, "Coordinator::advance", void, (void* self, int rank, long dt), (self, rank, dt))
USW_PROBE(kSim, kCpu, _ZN3usw3sim11Coordinator4gateEi, "Coordinator::gate", void, (void* self, int rank), (self, rank))
USW_PROBE(kSim, kCpu, _ZN3usw3sim11Coordinator10wait_untilEilRKSt8functionIFlvEE, "Coordinator::wait_until(refresh)", void, (void* self, int rank, long wake, const Refresh& refresh), (self, rank, wake, refresh))
USW_PROBE(kSim, kSampled, _ZN3usw3sim11Coordinator6notifyEili, "Coordinator::notify", void, (void* self, int rank, long stamp, int src), (self, rank, stamp, src))
// comm: the Comm API the scheduler calls.
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm5isendEiiOSt6vectorISt4byteSaIS3_EE, "Comm::isend(vector&&)", unsigned long, (void* self, int dst, int tag, void* data), (self, dst, tag, data))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm11isend_bytesEiim, "Comm::isend_bytes", unsigned long, (void* self, int dst, int tag, unsigned long bytes), (self, dst, tag, bytes))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm5irecvEii, "Comm::irecv", unsigned long, (void* self, int src, int tag), (self, src, tag))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm9test_bulkESt4spanIKmLm18446744073709551615EE, "Comm::test_bulk", unsigned long, (void* self, IdSpan ids), (self, ids))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm11flush_sendsEv, "Comm::flush_sends", void, (void* self), (self))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm16service_progressEv, "Comm::service_progress", void, (void* self), (self))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm14reset_requestsEv, "Comm::reset_requests", void, (void* self), (self))
USW_PROBE(kComm, kWall, _ZNK3usw4comm4Comm25earliest_known_completionESt4spanIKmLm18446744073709551615EE, "Comm::earliest_known_completion", long, (const void* self, IdSpan ids), (self, ids))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm13allreduce_maxEd, "Comm::allreduce_max", double, (void* self, double v), (self, v))
USW_PROBE(kComm, kWall, _ZN3usw4comm4Comm13allreduce_sumEd, "Comm::allreduce_sum", double, (void* self, double v), (self, v))
// sched: one timestep of the task scheduler.
USW_PROBE(kSched, kCpu, _ZN3usw5sched9Scheduler7executeERNS_4task11TaskContextE, "Scheduler::execute", usw::sched::StepStats, (void* self, void* ctx), (self, ctx))
// athread: offload spawn / completion polling (on the serial backend spawn
// also runs the tile loops and kernels).
USW_PROBE(kAthread, kWall, _ZN3usw7athread10CpeCluster5spawnERKSt8functionIFvRNS0_10CpeContextEEEi, "CpeCluster::spawn", void, (void* self, const void* job, int g), (self, job, g))
USW_PROBE(kAthread, kWall, _ZN3usw7athread10CpeCluster4pollEi, "CpeCluster::poll", bool, (void* self, int g), (self, g))
// dma: athread_get / athread_put.
USW_PROBE(kDma, kSampled, _ZN3usw7athread10CpeContext3getEPKvPvmb, "CpeContext::get", void, (void* self, const void* src, void* dst, unsigned long bytes, bool strided), (self, src, dst, bytes, strided))
USW_PROBE(kDma, kSampled, _ZN3usw7athread10CpeContext3putEPKvPvmb, "CpeContext::put", void, (void* self, const void* src, void* dst, unsigned long bytes, bool strided), (self, src, dst, bytes, strided))
// obs: in-run flight-ring recording (the post-run exports are timed by e2e.cc).
USW_PROBE(kObs, kSampled, _ZN3usw3obs14FlightRecorder6recordENS0_10FlightKindEllll, "FlightRecorder::record", void, (void* self, unsigned char kind, long time, long a, long b, long c), (self, kind, time, a, b, c))
// clang-format on

namespace e2e {

void write_probe_report(usw::obs::JsonWriter& w) {
  t_acc.flush();  // the calling thread's own calls
  const std::lock_guard<std::mutex> lock(g_mu);
  const std::vector<const Probe*>& probes = registry();

  // Estimated self time of each probe, and the untimed sampled time to move
  // out of the enclosing layers.
  std::vector<double> self(probes.size(), 0.0);
  std::array<double, kNumLayers + 1> moved{};
  for (const Probe* p : probes) {
    const Acc& a = g_acc[static_cast<std::size_t>(p->id)];
    self[static_cast<std::size_t>(p->id)] = static_cast<double>(a.self_ns);
    if (p->clock != kSampled || a.timed == 0) continue;
    const double mean = static_cast<double>(a.self_ns) / static_cast<double>(a.timed);
    for (std::size_t l = 0; l < moved.size(); ++l) {
      const double est = mean * static_cast<double>(a.untimed_in[l]);
      moved[l] += est;
      self[static_cast<std::size_t>(p->id)] += est;
    }
  }

  std::array<double, kNumLayers> layer_ns{};
  std::array<std::uint64_t, kNumLayers> layer_calls{};
  for (const Probe* p : probes) {
    layer_ns[static_cast<std::size_t>(p->layer)] += self[static_cast<std::size_t>(p->id)];
    layer_calls[static_cast<std::size_t>(p->layer)] += g_acc[static_cast<std::size_t>(p->id)].calls;
  }
  for (int l = 0; l < kNumLayers; ++l) layer_ns[static_cast<std::size_t>(l)] -= moved[static_cast<std::size_t>(l)];

  w.begin_object();
  w.key("layers");
  w.begin_object();
  for (int l = 0; l < kNumLayers; ++l) {
    w.key(kLayerNames[l]);
    w.begin_object();
    w.kv("calls", layer_calls[static_cast<std::size_t>(l)]);
    w.kv("self_ns", layer_ns[static_cast<std::size_t>(l)]);
    w.end_object();
  }
  w.end_object();
  w.key("symbols");
  w.begin_array();
  for (const Probe* p : probes) {
    const Acc& a = g_acc[static_cast<std::size_t>(p->id)];
    w.begin_object();
    w.kv("symbol", p->symbol);
    w.kv("name", p->name);
    w.kv("layer", kLayerNames[p->layer]);
    w.kv("calls", a.calls);
    w.kv("self_ns", self[static_cast<std::size_t>(p->id)]);
    w.kv("linked", p->linked);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace e2e
