#pragma once

// Vector-clock happens-before race oracle for one rank's execution.
//
// The schedule-point layer (src/schedpt) explores interleavings; this
// checker decides, for each explored schedule, whether two data-warehouse
// accesses were ORDERED by the execution's fork/join structure or merely
// happened not to collide. The structural checkers in check.h reason about
// the compiled graph's declared order; this one observes the *dynamic*
// order, so it catches the class of bug where the MPE touches a region an
// in-flight offload owns — ordered by luck under the canonical schedule,
// unordered under the happens-before relation.
//
// Model: logical thread 0 is the MPE. Each offload spawn forks one logical
// thread (per CPE group; the CPEs of a group share a fork/join bracket —
// intra-offload tile races are tile_check.h's job); the MPE observing the
// offload's completion joins it. Accesses carry a vector-clock snapshot of
// their thread. Two accesses to the same (label, warehouse, patch) race iff
// their boxes overlap, at least one is a write, and neither vector clock
// dominates the other.
//
// Provenance: each fork records the global schedule-point index at which it
// happened (ScheduleController::points_seen), so a reported race names the
// decision prefix to replay up to — the minimal reproduction handle.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/check.h"
#include "grid/box.h"
#include "task/task.h"
#include "var/varlabel.h"

namespace usw::check {

class HbChecker {
 public:
  explicit HbChecker(int rank) : rank_(rank) {}

  /// Starts a fresh timestep: the access log and fork/join state reset
  /// (offloads never span steps); collected violations persist.
  void begin_step(int step);

  /// An offload was spawned on CPE group `group`. `sched_point` is the
  /// global schedule-point count at the fork, recorded as provenance.
  void fork(int group, std::uint64_t sched_point);

  /// The MPE observed group `group`'s offload completion.
  void join(int group);

  /// Records an access by the MPE (`group` < 0) or by the offload in
  /// flight on `group`. `task` names the detailed task for the report.
  void read(int group, const var::VarLabel* label, task::WhichDW dw,
            int patch_id, const grid::Box& box, const std::string& task);
  void write(int group, const var::VarLabel* label, task::WhichDW dw,
             int patch_id, const grid::Box& box, const std::string& task);

  // ---- Results / telemetry ----

  std::vector<Violation> take_violations() { return std::move(violations_); }
  std::uint64_t accesses_recorded() const { return accesses_recorded_; }
  std::uint64_t pairs_checked() const { return pairs_checked_; }
  std::uint64_t forks() const { return forks_; }

  /// Current vector clocks, one per logical thread ([0] = MPE), for
  /// diagnostic dumps. Pure read of rank-local state.
  const std::vector<std::vector<std::uint64_t>>& clocks() const { return clocks_; }

 private:
  using VectorClock = std::vector<std::uint64_t>;

  struct Access {
    int thread = 0;
    VectorClock vc;
    grid::Box box;
    bool is_write = false;
    std::string task;
    std::uint64_t fork_point = 0;  ///< 0 for the MPE
  };

  /// a happened before b iff a's clock entry for its own thread is visible
  /// in b's snapshot.
  static bool happens_before(const Access& a, const Access& b) {
    return a.thread < static_cast<int>(b.vc.size()) &&
           a.vc[static_cast<std::size_t>(a.thread)] <=
               b.vc[static_cast<std::size_t>(a.thread)];
  }

  int thread_of(int group) const;
  void record(int group, const var::VarLabel* label, task::WhichDW dw,
              int patch_id, const grid::Box& box, bool is_write,
              const std::string& task);
  void report(const Access& a, const Access& b, const var::VarLabel* label,
              task::WhichDW dw, int patch_id);

  int rank_;
  int step_ = -1;
  std::vector<VectorClock> clocks_{VectorClock{0}};  ///< [0] = MPE
  std::vector<std::uint64_t> fork_points_{0};        ///< per logical thread
  std::map<int, int> group_thread_;  ///< in-flight group -> logical thread
  /// (label id, which dw, patch id) -> accesses this step.
  std::map<std::tuple<int, int, int>, std::vector<Access>> accesses_;
  std::vector<Violation> violations_;
  /// Dedup: the same structural race fires every step; report it once per
  /// (label, patch, task pair).
  std::set<std::tuple<int, int, std::string, std::string>> seen_;
  std::uint64_t accesses_recorded_ = 0;
  std::uint64_t pairs_checked_ = 0;
  std::uint64_t forks_ = 0;
};

}  // namespace usw::check
