#pragma once

// Schedule points: the runtime's nondeterminism surface, reified.
//
// The simulator is deterministic by construction — the conservative
// min-clock coordinator explores exactly ONE interleaving of the many the
// real machine could exhibit. That determinism hides ordering bugs: a race
// survives until the one fixed schedule happens to trip it. This module
// turns the determinism into a search tool, NodeFz-style: every decision
// the runtime makes that a real machine would make nondeterministically is
// instrumented as a named *schedule point*, and a pluggable controller
// decides it.
//
//   kRankPick     which rank the coordinator grants the token next, among
//                 the ranks inside the causal lookahead window (sim);
//   kMsgMatch     which (src, tag) class of visible messages a rank's
//                 MPI_Test delivers first (comm);
//   kOffloadPoll  which in-flight CPE group's completion flag the async
//                 scheduler polls first (athread);
//   kTileGrab     which of several virtual-clock-tied CPEs wins the shared
//                 atomic tile counter (sched/tile_policy).
//
// Controllers (selected via `uswsim --schedule=`):
//
//   kDefault  no controller is installed; the canonical choice (index 0)
//             is taken everywhere at zero cost.
//   kFuzz     perturbs every decision with a pure seeded hash of
//             (seed, kind, rank, point index) — the same stateless style
//             as src/fault, so a decision does not depend on when it
//             is asked for. Every perturbation is causally bounded
//             (see each site), so numerics and archives stay bit-equal to
//             the default schedule while the interleaving changes.
//   kRecord   takes the canonical choice and serializes the full decision
//             sequence to a versioned file.
//   kReplay   re-executes a recorded file exactly; the first point whose
//             (kind, rank, candidate count) disagrees with the recording
//             raises StateError naming it, instead of silently diverging.
//
// Thread-safety / determinism: every choose() call happens either on the
// rank thread currently holding the Coordinator token or inside the
// coordinator's pick (between token holds), so the global decision
// sequence is totally ordered and a pure function of the run; the internal
// mutex only makes that ordering visible to the memory model.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace usw::schedpt {

enum class Mode : std::uint8_t { kDefault, kFuzz, kRecord, kReplay };

const char* to_string(Mode mode);

/// The instrumented decision sites. Order is the on-disk encoding order.
enum class PointKind : std::uint8_t {
  kRankPick,
  kMsgMatch,
  kOffloadPoll,
  kTileGrab,
};

inline constexpr int kNumPointKinds = 4;

const char* to_string(PointKind kind);

/// Parsed value of `--schedule=MODE[:key=value...]`.
struct ScheduleSpec {
  Mode mode = Mode::kDefault;
  std::uint64_t seed = 1;  ///< fuzz hash seed
  std::string file;        ///< record/replay file; optional for fuzz

  /// Parses "default" | "fuzz[:seed=N][:file=F]" | "record:file=F" |
  /// "replay:file=F". Empty means default. Throws ConfigError naming
  /// --schedule on an unknown mode, a missing file=, or a bad seed=.
  static ScheduleSpec parse(const std::string& spec);

  /// One-line human description ("fuzz seed=7 -> file sched.txt").
  std::string describe() const;
};

/// Decisions taken so far, by schedule-point kind.
struct PointCounters {
  std::uint64_t by_kind[kNumPointKinds] = {0, 0, 0, 0};

  std::uint64_t of(PointKind kind) const {
    return by_kind[static_cast<int>(kind)];
  }
};

/// Pluggable schedule controller (fuzz / record / replay). Instrumented
/// sites call choose() with their candidate count; the controller returns
/// the index to take. Index 0 is always the canonical (default-schedule)
/// choice, so a site with a null controller simply takes 0.
class ScheduleController {
 public:
  /// Builds the controller for `spec`; returns null for Mode::kDefault
  /// (callers treat a null controller as "always choose 0, record
  /// nothing"). Replay loads and validates the file here.
  static std::unique_ptr<ScheduleController> make(const ScheduleSpec& spec);

  virtual ~ScheduleController() = default;
  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  /// Decides schedule point (`kind`, `rank`) among `n` candidates; returns
  /// the chosen index in [0, n). Points with n <= 1 carry no decision and
  /// are neither counted nor logged, keeping recordings minimal. Replay
  /// throws StateError on the first divergent point.
  int choose(PointKind kind, int rank, int n);

  /// Completes the run: record (and fuzz-with-file) write the schedule
  /// file; replay verifies the recording was fully consumed and throws
  /// StateError naming the next unconsumed point otherwise.
  void finish();

  const ScheduleSpec& spec() const { return spec_; }

  /// Decision counts so far (snapshot under the lock).
  PointCounters counters() const;

  /// Host wall-clock overhead of choose(), per point kind: nanoseconds
  /// spent deciding and how many decisions were timed. Never fed back into
  /// the simulation (host numbers only appear in the host profile).
  struct HostOverhead {
    std::uint64_t ns[kNumPointKinds] = {0, 0, 0, 0};
    std::uint64_t calls[kNumPointKinds] = {0, 0, 0, 0};
  };
  HostOverhead host_overhead() const;

  /// Total decisions so far — the "schedule point index" used as
  /// provenance by the happens-before checker.
  std::uint64_t points_seen() const;

  /// One recorded/replayed decision (public so the file reader/writer can
  /// traffic in them; produced only via choose()).
  struct Entry {
    PointKind kind = PointKind::kRankPick;
    int rank = -1;
    int n = 0;
    int chosen = 0;
  };

 protected:
  explicit ScheduleController(ScheduleSpec spec) : spec_(std::move(spec)) {}

  /// Mode-specific decision for point `index` (the global decision
  /// counter). Called with the controller lock held.
  virtual int decide(PointKind kind, int rank, int n, std::uint64_t index) = 0;

  /// Mode-specific end-of-run hook, called with the lock held.
  virtual void on_finish(const std::vector<Entry>& log) = 0;

  /// Whether choose() should append to the in-memory log (record, and
  /// fuzz with a file target).
  virtual bool logging() const { return false; }

 private:
  const ScheduleSpec spec_;
  mutable std::mutex mu_;
  PointCounters counters_;
  HostOverhead host_;
  std::uint64_t total_ = 0;
  std::vector<Entry> log_;
};

}  // namespace usw::schedpt
