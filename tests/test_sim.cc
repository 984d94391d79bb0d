// Tests for the deterministic discrete-event core: min-clock ordering,
// wait/notify semantics, deadlock detection, cancellation, and traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/heat/heat_app.h"
#include "runtime/controller.h"
#include "schedpt/schedule.h"
#include "sim/coordinator.h"
#include "support/test_helpers.h"

using usw::test::slurp;

namespace usw::sim {
namespace {

TEST(Coordinator, SingleRankAdvances) {
  run_ranks(1, [](Coordinator& c, int r) {
    EXPECT_EQ(c.now(r), 0);
    c.advance(r, 100);
    EXPECT_EQ(c.now(r), 100);
    c.gate(r);  // trivially min
    EXPECT_EQ(c.now(r), 100);
  });
}

TEST(Coordinator, GateOrdersByClock) {
  // Each rank advances by a rank-specific amount, then gates; the order in
  // which gates complete must follow virtual clocks, not host scheduling.
  std::mutex mu;
  std::vector<int> order;
  run_ranks(4, [&](Coordinator& c, int r) {
    c.advance(r, (r + 1) * 10);
    c.gate(r);
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(r);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Coordinator, TieBrokenByRankId) {
  std::mutex mu;
  std::vector<int> order;
  run_ranks(3, [&](Coordinator& c, int r) {
    c.advance(r, 50);  // same clock for everyone
    c.gate(r);
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(r);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Coordinator, WaitUntilAdvancesClock) {
  run_ranks(1, [](Coordinator& c, int r) {
    c.wait_until(r, 5000);
    EXPECT_EQ(c.now(r), 5000);
    // Waiting for a past time is a no-op.
    c.wait_until(r, 10);
    EXPECT_EQ(c.now(r), 5000);
  });
}

TEST(Coordinator, NotifyWakesWaiter) {
  // Rank 0 waits with no locally-known wake; rank 1 notifies it at t=300.
  run_ranks(2, [](Coordinator& c, int r) {
    if (r == 0) {
      c.wait_until(r, kNever);
      EXPECT_EQ(c.now(r), 300);
    } else {
      c.advance(r, 200);
      c.gate(r);
      c.notify(0, 300);
      c.advance(r, 500);
      c.gate(r);
    }
  });
}

TEST(Coordinator, NotifyNeverMovesClockBackwards) {
  run_ranks(2, [](Coordinator& c, int r) {
    if (r == 0) {
      c.advance(r, 1000);
      c.wait_until(r, kNever);
      // The notification stamp (100) is older than our clock: we wake "now".
      EXPECT_EQ(c.now(r), 1000);
    } else {
      c.advance(r, 400);
      c.gate(r);
      c.notify(0, 100);
    }
  });
}

TEST(Coordinator, EarlierNotifyLowersWake) {
  run_ranks(2, [](Coordinator& c, int r) {
    if (r == 0) {
      c.wait_until(r, 10000);  // known wake far in the future
      EXPECT_EQ(c.now(r), 250);  // external event arrived first
    } else {
      c.advance(r, 250);
      c.gate(r);
      c.notify(0, 250);
      c.advance(r, 1);
      c.gate(r);
    }
  });
}

TEST(Coordinator, DeadlockDetected) {
  EXPECT_THROW(run_ranks(2,
                         [](Coordinator& c, int r) {
                           (void)r;
                           c.wait_until(r, kNever);  // nobody will notify
                         }),
               StateError);
}

TEST(Coordinator, ExceptionPropagatesAndCancelsOthers) {
  EXPECT_THROW(run_ranks(2,
                         [](Coordinator& c, int r) {
                           if (r == 0) throw ConfigError("boom");
                           c.wait_until(r, kNever);  // must be cancelled
                         }),
               ConfigError);
}

TEST(Coordinator, ManyRanksDeterministicTimeline) {
  // A little virtual-time dance; final clocks must be identical on repeats.
  auto run_once = [] {
    std::vector<TimePs> finals(8);
    run_ranks(8, [&](Coordinator& c, int r) {
      for (int i = 0; i < 50; ++i) {
        c.advance(r, (r * 7 + i * 3) % 11 + 1);
        c.gate(r);
        if (r > 0) c.notify(r - 1, c.now(r) + 5);
      }
      finals[static_cast<std::size_t>(r)] = c.now(r);
    });
    return finals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Coordinator, InvalidConstruction) {
  EXPECT_DEATH(Coordinator(0), "at least one rank");
}

// ------------------------------------------------ serial grants at scale ---

/// Records every grant decision: (rank, time) in grant order.
struct PickSink : DiagSink {
  std::vector<std::pair<int, TimePs>> picks;
  void on_rank_pick(int rank, int, TimePs time) override {
    picks.emplace_back(rank, time);
  }
  void on_crash(const std::string&, const std::vector<RankStatus>&) override {}
};

/// The scripted rank program of GrantOrderMatchesReferenceModel. Between
/// two grants a rank runs one segment: advance, notify its successor, then
/// block in gate, a finite wait_until or a kNever wait_until. Small step
/// sizes make clock and wake ties common; notifies lower finite wakes and
/// release kNever waits.
struct ScriptedSegment {
  static constexpr int kSegments = 8;
  TimePs dt = 0;     ///< advance before the notify
  TimePs stamp = 0;  ///< notify stamp, relative to the clock after dt
  int op = 0;        ///< 0 gate, 1 finite wait, 2 kNever wait (never in
                     ///< the last two segments)
  TimePs wait = 0;   ///< finite wait: wake relative to the clock

  static ScriptedSegment of(int rank, int seg) {
    const auto h = static_cast<std::uint32_t>(rank * 2654435761u + seg * 40503u);
    const std::uint32_t mix = (h ^ (h >> 13)) * 0x5bd1e995u;
    ScriptedSegment s;
    s.dt = static_cast<TimePs>((mix >> 3) % 3) * 5;
    s.stamp = static_cast<TimePs>((mix >> 7) % 16);
    const std::uint32_t pick = (mix >> 11) % 16;
    s.op = pick < 9 ? 0 : (pick < 15 || seg >= kSegments - 2 ? 1 : 2);
    s.wait = 5 + static_cast<TimePs>((mix >> 17) % 4) * 5;
    return s;
  }
};

/// Naive O(n)-scan model of the serial coordinator running the scripted
/// programs: the (rank, time) grant sequence, how many waits a notify
/// released earlier than their own wake, and the deadlock message if the
/// run ends with ranks stranded at kNever.
struct ReferenceRun {
  std::vector<std::pair<int, TimePs>> grants;
  int lowered = 0;
  std::string deadlock;
};

ReferenceRun reference_grants(int n) {
  enum class St { kReady, kRunning, kWaiting, kFinished };
  struct Rank {
    St st = St::kReady;
    TimePs clock = 0;
    TimePs wake = kNever;
    int seg = 0;
  };
  std::vector<Rank> ranks(static_cast<std::size_t>(n));
  ReferenceRun out;
  for (;;) {
    int best = -1;
    TimePs best_time = kNever;
    for (int r = 0; r < n; ++r) {
      const Rank& k = ranks[static_cast<std::size_t>(r)];
      const TimePs eff = k.st == St::kReady     ? k.clock
                         : k.st == St::kWaiting ? k.wake
                                                : kNever;
      if (eff < best_time) {
        best = r;
        best_time = eff;
      }
    }
    if (best < 0) {
      // Anyone still waiting waits on kNever: the coordinator's deadlock.
      std::string waiting;
      for (int r = 0; r < n; ++r) {
        const Rank& k = ranks[static_cast<std::size_t>(r)];
        if (k.st == St::kWaiting)
          waiting += " rank " + std::to_string(r) + " waiting at t=" +
                     std::to_string(k.clock);
      }
      if (!waiting.empty()) out.deadlock = "virtual-time deadlock:" + waiting;
      break;
    }
    Rank& g = ranks[static_cast<std::size_t>(best)];
    if (g.st == St::kWaiting) g.clock = std::max(g.clock, g.wake);
    g.wake = kNever;
    g.st = St::kRunning;
    out.grants.emplace_back(best, g.clock);
    if (g.seg == ScriptedSegment::kSegments) {
      g.st = St::kFinished;
      continue;
    }
    const ScriptedSegment s = ScriptedSegment::of(best, g.seg++);
    g.clock += s.dt;
    Rank& peer = ranks[static_cast<std::size_t>((best + 1) % n)];
    if (peer.st == St::kWaiting) {
      const TimePs wake = std::max(g.clock + s.stamp, peer.clock);
      if (wake < peer.wake) {
        peer.wake = wake;
        ++out.lowered;
      }
    }
    if (s.op == 0) {
      g.st = St::kReady;
    } else {
      g.st = St::kWaiting;
      g.wake = s.op == 1 ? g.clock + s.wait : kNever;
    }
  }
  return out;
}

TEST(Coordinator, GrantOrderMatchesReferenceModel) {
  constexpr int kRanks = 1024;
  PickSink sink;
  std::string error;
  try {
    run_ranks(
        kRanks,
        [](Coordinator& c, int r) {
          for (int seg = 0; seg < ScriptedSegment::kSegments; ++seg) {
            const ScriptedSegment s = ScriptedSegment::of(r, seg);
            c.advance(r, s.dt);
            c.notify((r + 1) % kRanks, c.now(r) + s.stamp);
            if (s.op == 0)
              c.gate(r);
            else
              c.wait_until(r, s.op == 1 ? c.now(r) + s.wait : kNever);
          }
        },
        nullptr, 0, &sink, 0);
  } catch (const StateError& e) {
    error = e.what();
  }
  const ReferenceRun want = reference_grants(kRanks);
  ASSERT_EQ(sink.picks.size(), want.grants.size());
  EXPECT_TRUE(sink.picks == want.grants);
  // A few ranks wait at kNever after their predecessor has finished; the
  // run must end in the deadlock the model predicts, with its message.
  ASSERT_FALSE(want.deadlock.empty());
  EXPECT_NE(error.find("(" + want.deadlock + ")"), std::string::npos) << error;
  EXPECT_GT(want.grants.size(), kRanks * ScriptedSegment::kSegments * 9 / 10);
  // The script must exercise what it is meant to: same-time grants broken
  // by rank id, and waits released early by a notify.
  int ties = 0;
  for (std::size_t i = 1; i < want.grants.size(); ++i)
    ties += want.grants[i].second == want.grants[i - 1].second ? 1 : 0;
  EXPECT_GT(ties, kRanks);
  EXPECT_GT(want.lowered, kRanks / 8);
}

TEST(Coordinator, ThrowAt1024RanksDrainsEveryParkedRank) {
  // Rank 0 throws once every rank has entered its body. By then the others
  // are parked at a gate (r % 3 == 0), at a far finite wait_until
  // (r % 3 == 1) or at kNever (r % 3 == 2). All must drain and the
  // original error must be rethrown.
  constexpr int kRanks = 1024;
  std::atomic<int> entered{0};
  std::atomic<int> drained{0};
  try {
    run_ranks(kRanks, [&](Coordinator& c, int r) {
      entered.fetch_add(1);
      struct Drain {
        std::atomic<int>& n;
        ~Drain() { n.fetch_add(1); }
      } drain{drained};
      c.advance(r, 10);
      c.gate(r);
      if (r == 0) {
        while (entered.load() < kRanks) {
          c.advance(r, 1);
          c.gate(r);
        }
        throw StateError("rank 0 failed while the others were parked");
      }
      if (r % 3 == 1) c.wait_until(r, c.now(r) + 1'000'000);
      if (r % 3 == 2) c.wait_until(r, kNever);
      for (int i = 0; i < 1000; ++i) {
        c.advance(r, 7);
        c.gate(r);
      }
    });
    ADD_FAILURE() << "the error did not surface";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0 failed"), std::string::npos);
  }
  EXPECT_EQ(drained.load(), kRanks);
}

TEST(Coordinator, FuzzScheduleFileMatchesGolden) {
  // A fuzzed 16-rank heat run must record exactly the committed schedule:
  // the kRankPick candidate lists (best first, then ascending rank id) and
  // every decision are part of the recorded-schedule format.
  const std::string file =
      (std::filesystem::temp_directory_path() / "usw_test_sim_fuzz5.uswsched")
          .string();
  runtime::RunConfig config;
  config.problem = runtime::tiny_problem({4, 4, 4}, {8, 8, 8});
  config.variant = runtime::variant_by_name("acc.async");
  config.nranks = 16;
  config.timesteps = 3;
  config.schedule = schedpt::ScheduleSpec::parse("fuzz:seed=5:file=" + file);
  runtime::run_simulation(config, apps::heat::HeatApp());
  const std::string want = slurp(USW_TEST_DATA_DIR "/fuzz_seed5_heat16.uswsched");
  ASSERT_FALSE(want.empty()) << "missing golden schedule file";
  ASSERT_TRUE(slurp(file) == want)
      << "recorded schedule differs from the golden file; kept at " << file;
  std::filesystem::remove(file);
}

// ------------------------------------------------ cancellation and crashes ---

TEST(Coordinator, DeadlockMessageNamesWaitingRanks) {
  try {
    run_ranks(2, [](Coordinator& c, int r) { c.wait_until(r, kNever); });
    ADD_FAILURE() << "no deadlock";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "(virtual-time deadlock: rank 0 waiting at t=0 rank 1 "
                  "waiting at t=0)"),
              std::string::npos)
        << e.what();
  }
}

/// Minimal crash-capturing diagnostic sink for watchdog tests.
struct CrashSink : DiagSink {
  std::string reason;
  void on_rank_pick(int, int, TimePs) override {}
  void on_crash(const std::string& why,
                const std::vector<RankStatus>&) override {
    reason = why;
  }
};

TEST(Coordinator, WatchdogReasonNamesStall) {
  // No heartbeat ever: the third grant, at t=1000, outruns the 500 ps
  // stall threshold. The reason names the interval and the stalled rank.
  CrashSink sink;
  try {
    run_ranks(
        2,
        [](Coordinator& c, int r) {
          for (int i = 0; i < 100; ++i) {
            c.advance(r, 1000);
            c.gate(r);
          }
        },
        nullptr, 0, &sink, 500);
    ADD_FAILURE() << "watchdog did not fire";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("hang watchdog"), std::string::npos);
  }
  EXPECT_EQ(sink.reason,
            "hang watchdog: no step completed between t=0 and t=1000 ps "
            "(threshold 500 ps); stalled at rank 0");
}

TEST(Coordinator, MidAdvanceErrorDrainsWithoutDeadlock) {
  // One rank throws StateError mid-segment while its siblings are parked
  // waiting and parked at gates. Every thread must drain (the throwing
  // rank cancels, parked ranks wake with Cancelled) and the original
  // error must surface.
  std::atomic<int> entered{0};
  std::atomic<int> drained{0};
  try {
    run_ranks(4, [&](Coordinator& c, int r) {
      entered.fetch_add(1);
      struct Drain {
        std::atomic<int>& n;
        ~Drain() { n.fetch_add(1); }
      } drain{drained};
      c.advance(r, 10 + r);
      c.gate(r);
      if (r == 2) {
        // Keep yielding until every rank has entered the body, so the
        // error provably lands while siblings are parked at gates and
        // parked waiting.
        while (entered.load() < 4) {
          c.advance(r, 1);
          c.gate(r);
        }
        c.advance(r, 5);
        throw StateError("validation failure mid-advance");
      }
      if (r == 3) c.wait_until(r, kNever);
      for (int i = 0; i < 100; ++i) {
        c.advance(r, 7);
        c.gate(r);
      }
    });
    ADD_FAILURE() << "error did not surface";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("validation failure"),
              std::string::npos);
  }
  EXPECT_EQ(drained.load(), 4);
}

TEST(Coordinator, CancelDuringRunReleasesAllRanks) {
  try {
    run_ranks(3, [](Coordinator& c, int r) {
      c.advance(r, 100);
      c.gate(r);
      if (r == 0) c.cancel("operator abort");
      c.wait_until(r, c.now(r) + 1000);
    });
    ADD_FAILURE() << "cancel did not surface";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("operator abort"), std::string::npos);
  }
}

}  // namespace
}  // namespace usw::sim
