#pragma once

// Deterministic discrete-event execution of simulated MPI ranks.
//
// Each simulated rank (one Sunway core-group in this project) runs on its
// own host thread and owns a virtual clock in integer picoseconds. The
// Coordinator enforces the conservative discrete-event invariant:
// a rank may only *observe* shared state (incoming messages) while it has
// been granted execution, and grants never violate causality. Because a
// message sent at sender time S arrives at S + latency > S, every message
// that can influence a rank at time T has physically been enqueued by the
// time that rank runs at T. Simulated timings are therefore exactly
// reproducible regardless of host scheduling.
//
// One token: at most one rank runs at a time, always the one with the
// minimum virtual time (ties broken by lowest rank id) — the paper drives
// each core group from one MPE thread, and one grant at a time is what
// makes the interleaving a pure function of the inputs.
//
// Grant path. Every park (gate, wait_until, finish) hands the token on,
// so at 1024 ranks the handoff itself is most of the host cost. Two
// structures keep it cheap:
//
//   Grant index - the eligible ranks (kReady at their clock, kWaiting at a
//               finite wake) in an indexed binary min-heap keyed by
//               (eligibility, rank id): the grant order itself. It is
//               sized once for every rank, so a handoff allocates nothing.
//               start/gate/wait_until push, a notify that lowers a wake
//               sifts the rank up from the heap position it keeps, the
//               grant removes. The next rank is the top, O(log n) per
//               handoff; `started_`/`finished_` counters answer "everyone
//               registered?" and "anyone unfinished?" without a scan.
//               Under a schedule controller the kRankPick candidates are
//               the entries within the lookahead (a walk that prunes at
//               the first entry past it), listed best first, then by
//               ascending rank id; the chosen one leaves the heap from
//               wherever it sits.
//
//   Wake-up     - each rank sleeps on its own POSIX semaphore. The grantor
//               decides the next rank under `lock_`, RELEASES the lock,
//               and only then posts the chosen rank's semaphore; the woken
//               rank returns without touching `lock_` (the grant was fully
//               recorded before the post, and sem_post/sem_wait order it).
//               Waking under the lock made the woken thread run only to
//               block again on the mutex the grantor still held. A
//               self-regrant (the parking rank is still the minimum) wakes
//               nobody. The semaphore remembers a post that arrives before
//               its rank has gone to sleep, so there are no lost wake-ups,
//               and it sleeps in the kernel without spinning —
//               std::atomic::wait and std::binary_semaphore (libstdc++ 12)
//               spin with sched_yield first, which costs involuntary
//               context switches on every handoff when 1024 rank threads
//               share a core. A crash posts every parked rank's semaphore
//               after on_crash has run.
//
// advance() and heartbeat() are lock-free owner writes: only the granted
// rank writes its own clock, and the next lock_ acquisition (its own park)
// publishes the value to the grantor.
//
// Interaction with the real-threads CPE backend (athread::Backend::
// kThreads): CPE worker threads are NOT simulated ranks and never touch
// the Coordinator or any virtual time. They only move an offload's data;
// the owning rank fixes the offload's busy times and completion time at
// the spawn, while it is granted, and blocks (in host wall-clock, with its
// virtual clock frozen) for the workers only where it starts reading the
// offload's outputs. The conservative invariant therefore holds unchanged:
// all virtual-time mutation happens on the granted rank's thread.
//
// Rank states:
//   kReady    - wants to run; eligible at its clock.
//   kRunning  - granted (at most one rank at a time).
//   kWaiting  - blocked until its wake time; the wake time may be lowered
//               by Coordinator::notify() when a matching message arrives,
//               and may be kNever if the rank has no locally-known event.
//   kFinished - rank function returned.
//
// Deadlock (all unfinished ranks waiting on kNever) is detected and turns
// into a StateError on every participating rank, so tests can assert on it.

#include <semaphore.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/units.h"

namespace usw::schedpt {
class ScheduleController;
}  // namespace usw::schedpt

namespace usw::sim {

/// Sentinel wake time: "no locally known wake event".
inline constexpr TimePs kNever = std::numeric_limits<TimePs>::max();

/// Thrown inside rank bodies when the simulation is cancelled (another rank
/// threw, or deadlock was detected).
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& why) : Error("simulation cancelled: " + why) {}
};

/// Point-in-time view of one rank for a diagnostic snapshot. `state` is a
/// single letter: 'u' unstarted, 'r' ready, 'R' running, 'w' waiting,
/// 'f' finished. `wake` is kNever when the rank has no locally-known event.
struct RankStatus {
  int rank = -1;
  char state = '?';
  TimePs clock = 0;
  TimePs wake = kNever;
};

/// Diagnostic sink wired into the Coordinator (implemented by obs::DiagHub;
/// declared here so sim does not depend on obs). Both callbacks run with
/// the coordinator lock held:
///  - on_rank_pick: an execution grant was decided; cheap, called per grant.
///  - on_crash: the run is being cancelled (deadlock, watchdog stall, or an
///    explicit cancel). Called exactly once, BEFORE parked ranks are woken,
///    so their per-rank state is frozen and safe to snapshot — except the
///    rank whose status letter is 'R': a throwing rank cancels from inside
///    its own grant, and an explicit cancel may land while one rank is
///    granted, so that rank can be mid-execution and implementations must
///    not touch its per-rank state. Implementations must never call back
///    into the Coordinator (self-deadlock on the held lock).
class DiagSink {
 public:
  virtual ~DiagSink() = default;
  virtual void on_rank_pick(int rank, int candidates, TimePs time) = 0;
  virtual void on_crash(const std::string& reason,
                        const std::vector<RankStatus>& ranks) = 0;
};

class Coordinator {
 public:
  explicit Coordinator(int nranks);

  int size() const { return static_cast<int>(ranks_.size()); }

  /// Registers the calling thread as `rank` and blocks until it is granted
  /// execution for the first time.
  void start(int rank);

  /// Marks `rank` finished and releases its grant.
  void finish(int rank);

  /// Current virtual time of `rank`.
  TimePs now(int rank) const;

  /// Adds local work time. Only legal while `rank` is granted.
  void advance(int rank, TimePs dt);

  /// Yields the grant if required and blocks until `rank` may observe
  /// shared state at its current clock. Must be called before observing
  /// incoming messages.
  void gate(int rank);

  /// Blocks until virtual time `wake` (a locally known future event such as
  /// an offloaded kernel completing), or earlier if notify() reports an
  /// external event first. On return the rank is granted and its clock
  /// equals the wake time that fired. `wake == kNever` blocks purely on
  /// external notification.
  void wait_until(int rank, TimePs wake);

  /// Reports an external event for `rank` (e.g. message arrival) stamped at
  /// virtual time `stamp`. Callable by the granted rank. Lowers the wake of
  /// a waiting `rank` to max(stamp, its clock); a rank that is not waiting
  /// observes the event itself when it next polls.
  void notify(int rank, TimePs stamp);

  /// Cancels the simulation; all blocked ranks throw Cancelled.
  void cancel(const std::string& why);

  bool cancelled() const;

  /// Why the run was cancelled ("" if it was not).
  std::string cancel_reason() const;

  /// Installs a diagnostic sink (see DiagSink). `stall_threshold > 0` also
  /// arms the hang watchdog: if the next grant would advance virtual
  /// time more than `stall_threshold` past the last heartbeat() mark, the
  /// run is cancelled with a "hang watchdog" reason and the sink's
  /// on_crash fires. 0 disables the watchdog (the sink still gets crash
  /// dumps from deadlocks and explicit cancels). Call before ranks start.
  void set_diag(DiagSink* diag, TimePs stall_threshold);

  /// Marks application-level progress (a completed timestep) at `rank`'s
  /// current clock. The watchdog measures stall as virtual time elapsed
  /// since the newest mark. Requires the grant.
  void heartbeat(int rank);

  /// Installs a schedule controller for the kRankPick point. When set, the
  /// grant may go to any rank whose effective time lies STRICTLY within
  /// `lookahead` of the minimum clock instead of always the minimum.
  /// Strictness is what keeps the perturbation causal: a candidate B with
  /// T_B < T_min + lookahead cannot observe any message an unrun rank A
  /// would send, because that message arrives at >= T_A + lookahead >
  /// T_B. `lookahead` should be the minimum message latency (wire +
  /// software). Null disables (canonical min-clock order). Call before
  /// ranks start.
  void set_schedule(schedpt::ScheduleController* schedule, TimePs lookahead);

 private:
  enum class State : std::uint8_t { kUnstarted, kReady, kRunning, kWaiting, kFinished };

  /// The object a parked rank sleeps on (see "Grant path" in the header
  /// comment). A post before the wait is remembered.
  class Wakeup {
   public:
    Wakeup() { sem_init(&sem_, 0, 0); }
    ~Wakeup() { sem_destroy(&sem_); }
    Wakeup(const Wakeup&) = delete;
    Wakeup& operator=(const Wakeup&) = delete;
    void post() { sem_post(&sem_); }
    /// Sleeps until posted (retrying on signal interruption).
    void wait();

   private:
    sem_t sem_;
  };

  struct RankSlot {
    State state = State::kUnstarted;
    /// Owner-written, lock-free, while granted; the grantor writes it under
    /// lock_ while parked. Everyone else reads it under lock_ (a park
    /// orders it) or, stale-tolerant, for diagnostics.
    std::atomic<TimePs> clock{0};
    TimePs wake = kNever;
    Wakeup wakeup;  ///< grant signal, posted after lock_ is released
  };

  /// Picks the next rank to run and records its grant, or returns -1
  /// (ranks still registering, everyone finished, or the run was cancelled
  /// — possibly by this very pick's deadlock or watchdog check). Does not
  /// wake the rank: the caller does, after releasing lock_, via hand_off
  /// or a direct post. Requires lock_ held and no rank running.
  int pick_next_locked();

  /// Parks the granted `rank` in `state` (kReady, or kWaiting until
  /// `wake`), hands the grant on and blocks until re-granted. The body of
  /// gate() and wait_until(); returns at once when a kWaiting `wake` is
  /// already past.
  void park(int rank, State state, TimePs wake);

  /// lock_ NOT held: `next` is what pick_next_locked returned when `rank`
  /// parked. Unless `rank` was re-granted itself, wakes `next` and sleeps
  /// until `rank`'s own grant (or cancellation).
  void hand_off(int rank, int next);

  /// Cancels with `why`, fires diag_->on_crash (if any) while every parked
  /// rank is still frozen, then wakes everyone. Requires lock_ held.
  void crash_locked(const std::string& why);

  /// Builds the "virtual-time deadlock: ..." message.
  std::string deadlock_message_locked() const;
  /// True (and crashes) when granting at `best_time` trips the watchdog.
  bool watchdog_trips_locked(int best, TimePs best_time);

  /// The grant index (see "Grant path" above): (eligibility, rank id) of
  /// every kReady rank (at its clock) and every kWaiting rank with a finite
  /// wake, in a binary min-heap sized once for every rank. Each rank keeps
  /// its heap position, so a lowered wake and a granted candidate that is
  /// not the top are found without a search. Requires lock_ held.
  class GrantIndex {
   public:
    struct Entry {
      TimePs time = 0;
      int rank = -1;
    };
    explicit GrantIndex(int nranks);
    bool empty() const { return heap_.empty(); }
    const Entry& top() const { return heap_.front(); }
    /// Adds `rank`, which must not be in the index, eligible at `time`.
    void push(int rank, TimePs time);
    /// Moves `rank`, which must be in the index, to the earlier `time`.
    void lower(int rank, TimePs time);
    /// Removes `rank`, which must be in the index.
    void erase(int rank);
    /// Appends the rank of every entry other than the top whose time lies
    /// strictly within `window` of the top's, in no particular order.
    /// `stack` is walk scratch.
    void within(TimePs window, std::vector<int>& out,
                std::vector<std::size_t>& stack) const;

   private:
    static bool before(const Entry& a, const Entry& b) {
      return a.time < b.time || (a.time == b.time && a.rank < b.rank);
    }
    void place(std::size_t i, const Entry& e);
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);

    std::vector<Entry> heap_;
    std::vector<std::size_t> pos_;  ///< per rank: its index in heap_
  };

  mutable std::mutex lock_;
  std::vector<RankSlot> ranks_;
  int running_ = -1;  ///< the granted rank (-1 = none)
  GrantIndex eligible_;
  /// kRankPick scratch, sized once: the candidates, and the walk stack.
  std::vector<int> candidates_;
  std::vector<std::size_t> walk_;
  int started_ = 0;   ///< ranks registered (the first grant waits for all)
  int finished_ = 0;  ///< ranks that called finish()
  std::atomic<bool> cancelled_{false};
  std::string cancel_reason_;
  schedpt::ScheduleController* schedule_ = nullptr;
  TimePs lookahead_ = 0;
  DiagSink* diag_ = nullptr;
  TimePs stall_threshold_ = 0;  // 0 = watchdog off
  std::atomic<TimePs> progress_mark_{0};  ///< newest heartbeat() clock
};

/// Runs `body` once per rank on `nranks` host threads under a Coordinator.
/// Rethrows the first rank exception after all threads join.
void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body);

/// As above, with a schedule controller (may be null) deciding the
/// coordinator's kRankPick points within `lookahead` of the minimum clock,
/// and an optional diagnostic sink + hang-watchdog threshold (see
/// Coordinator::set_diag). On cancellation the StateError carries the
/// cancel reason.
void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body,
               schedpt::ScheduleController* schedule, TimePs lookahead,
               DiagSink* diag = nullptr, TimePs stall_threshold = 0);

}  // namespace usw::sim
