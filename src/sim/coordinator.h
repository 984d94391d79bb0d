#pragma once

// Deterministic discrete-event execution of simulated MPI ranks.
//
// Each simulated rank (one Sunway core-group in this project) runs on its
// own host thread and owns a virtual clock in integer picoseconds. The
// Coordinator enforces the conservative parallel-discrete-event invariant:
// a rank may only *observe* shared state (incoming messages) while it has
// been granted execution, and grants never violate causality. Because a
// message sent at sender time S arrives at S + latency > S, every message
// that can influence a rank at time T has physically been enqueued by the
// time that rank runs at T. Simulated timings are therefore exactly
// reproducible regardless of host scheduling.
//
// Two execution modes (CoordinatorSpec):
//
//   kSerial   - the classic token model: at most one rank runs at a time,
//               always the one with the minimum virtual time (ties broken
//               by lowest rank id). See "Serial grant path" below for how
//               a grant is found and handed over.
//
//   kParallel - conservative windowed PDES. Let T be the minimum
//               eligibility over all runnable ranks and L the lookahead
//               (the network's minimum end-to-end message latency,
//               net_latency + mpi_sw_latency — the same causal window the
//               kRankPick schedule point uses). Every rank whose
//               eligibility lies strictly inside [T, T + L) is granted
//               concurrently; each runs until its clock reaches the window
//               end, then parks; when all grants have parked the next
//               window opens. Causality: a message sent inside the window
//               at time S >= T arrives at S + L >= T + L, i.e. at or after
//               the window end, so no in-window rank can observe another
//               in-window rank's sends. All cross-rank observation
//               happens at times < window end, against mailbox state that
//               was complete when the window opened. Virtual times,
//               matching order, numerics, archives and metrics are
//               therefore BIT-IDENTICAL to kSerial; only host wall-clock
//               changes.
//
// Notify equivalence (the subtle part). Serial notify() applies a message
// arrival to the target's wake ONLY if the target is kWaiting at the
// moment the sender posts — otherwise it is dropped (the target re-reads
// the mailbox itself when it next waits). That moment is defined by the
// serial grant order, which is nondecreasing in (eligibility, rank id):
// the token always goes to the minimum, and a parking rank's next
// eligibility never falls below its grant time. A send therefore executes
// at serial-order position (S, sender) where S is the sender's SEGMENT
// START — its clock at the last grant/gate/wait boundary before the send —
// and the serial decision is:
//
//   dropped   if (S, sender) < (E, target)      [target still running its
//                                                pre-park segment, or in an
//                                                earlier, already-resolved
//                                                interval]
//   applied   if (E, target) < (S, sender) < (W, target)
//                  wake = min(wake, max(stamp, clock_at_park))
//   deferred  if (S, sender) > (W, target)      [lands on a later wait]
//
// where E is the target's segment start before its park and W its
// (progressively lowered) effective wake. The parallel engine reproduces
// this exactly: each rank tracks its segment start, notify() records
// (S, sender, stamp) into the target's pending list, and the records are
// resolved with the rule above — sorted by (S, sender) — at the target's
// own wait calls and at every window barrier. Records that would land in
// an already-executed interval are provably no-ops (their stamp is at
// least S + window, past that interval's wake), so host-side delivery
// timing cannot change any outcome.
//
// The parallel mode silently degenerates to serial granting (window width
// 0 still grants exactly the minimum rank) whenever a schedule controller
// is installed: fuzz/record/replay decisions form one globally ordered
// log, which only a total order over grants can reproduce.
//
// Serial grant path. Every park (gate, wait_until, finish) hands the
// token on, so at 1024 ranks the handoff itself is most of the host cost.
// Two structures keep it cheap:
//
//   Grant index - the eligible ranks (kReady at their clock, kWaiting at a
//               finite wake) in an ordered set keyed by (eligibility,
//               rank id): the serial grant order itself. start/gate/
//               wait_until insert, a notify that lowers a wake re-keys,
//               the grant removes. The next rank is the first entry,
//               O(log n) per handoff instead of two O(n) scans;
//               `started_`/`finished_` counters replace the "everyone
//               registered?" and "anyone unfinished?" scans. Under a
//               schedule controller the kRankPick candidates are the
//               leading entries within the lookahead, listed best first,
//               then by ascending rank id, as before.
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
// advance() and heartbeat() are lock-free owner writes in both modes:
// only the granted rank writes its own clock, and the next lock_
// acquisition (its own park) publishes the value to the grantor.
//
// Interaction with the real-threads CPE backend (athread::Backend::
// kThreads): CPE worker threads are NOT simulated ranks and never touch
// the Coordinator. They accumulate virtual busy time locally, per CPE, and
// the owning rank folds it into its own clock's frame of reference only
// while it is granted (CpeCluster blocks — in host wall-clock, with its
// virtual clock frozen — until the workers have published). The
// conservative invariant therefore holds unchanged: all virtual-time
// mutation still happens on granted rank threads.
//
// Rank states:
//   kReady    - wants to run; eligible at its clock.
//   kRunning  - granted (serial: at most one; parallel: up to the window).
//   kWaiting  - blocked until its wake time; the wake time may be lowered
//               by Coordinator::notify() when a matching message arrives,
//               and may be kNever if the rank has no locally-known event.
//   kFinished - rank function returned.
//
// Deadlock (all unfinished ranks waiting on kNever) is detected and turns
// into a StateError on every participating rank, so tests can assert on it.

#include <semaphore.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <utility>
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

/// How the Coordinator grants execution (uswsim --coordinator).
enum class CoordinatorMode : std::uint8_t { kSerial, kParallel };

/// Parsed form of `--coordinator=serial|parallel[:threads=N]`.
struct CoordinatorSpec {
  CoordinatorMode mode = CoordinatorMode::kSerial;
  /// Concurrent-grant cap for kParallel (0 = one per host core). Purely a
  /// host-side throttle: results are identical for every value.
  int max_concurrent = 0;

  bool parallel() const { return mode == CoordinatorMode::kParallel; }

  /// Parses "serial", "parallel", or "parallel:threads=N"; throws
  /// ConfigError on anything else.
  static CoordinatorSpec parse(const std::string& text);
  std::string describe() const;
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
///    so their per-rank state is frozen and safe to snapshot — except ranks
///    whose status letter is 'R': a cancel raised by a throwing rank can
///    leave other ranks mid-execution (in parallel mode, several), so
///    implementations must not touch per-rank state of running ranks.
///    Implementations must never call back into the Coordinator
///    (self-deadlock on the held lock).
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

  /// `window` is the conservative lookahead for CoordinatorMode::kParallel
  /// (ignored for kSerial); a zero window forces serial granting.
  Coordinator(int nranks, const CoordinatorSpec& spec, TimePs window);

  int size() const { return static_cast<int>(ranks_.size()); }

  /// True when windowed-parallel granting is in effect (spec requested it,
  /// the window is positive, and no schedule controller forced a total
  /// grant order).
  bool parallel_active() const { return par_; }

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
  /// incoming messages. In parallel mode this is a no-op while the rank's
  /// clock is still inside the open window.
  void gate(int rank);

  /// Blocks until virtual time `wake` (a locally known future event such as
  /// an offloaded kernel completing), or earlier if notify() reports an
  /// external event first. On return the rank is granted and its clock
  /// equals the wake time that fired. `wake == kNever` blocks purely on
  /// external notification.
  void wait_until(int rank, TimePs wake);

  /// Like wait_until, but for wakes derived from a scan of shared state
  /// (e.g. mailbox arrival stamps): `refresh` recomputes that scan. In
  /// parallel mode a scan made inside a window can miss a concurrent
  /// sender's push whose serial position precedes it (there is no
  /// real-time ordering between in-window segments), and the pending-
  /// notify fold deliberately drops records positioned before the
  /// target's segment on the assumption the scan covered them. The
  /// coordinator therefore re-runs `refresh` at every window barrier
  /// while the rank is parked — all pushes are mutex-ordered by then —
  /// and folds the result into the wake, restoring exactly the serial
  /// scan. `refresh` must not call back into the Coordinator (it runs
  /// under the coordinator lock, on the barrier thread) and must stay
  /// valid until this call returns; the serial path ignores it (its scan
  /// is authoritative by construction).
  void wait_until(int rank, TimePs wake, const std::function<TimePs()>& refresh);

  /// Reports an external event for `rank` (e.g. message arrival) stamped at
  /// virtual time `stamp`. Callable from any granted rank. `src` is the
  /// posting rank; parallel mode requires it (the record's serial-order
  /// position is the sender's segment start — see the header comment), the
  /// serial path ignores it.
  void notify(int rank, TimePs stamp, int src = -1);

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
  /// software). Null disables (canonical min-clock order). A non-null
  /// controller forces serial granting (its decision log is totally
  /// ordered). Call before ranks start.
  void set_schedule(schedpt::ScheduleController* schedule, TimePs lookahead);

 private:
  enum class State : std::uint8_t { kUnstarted, kReady, kRunning, kWaiting, kFinished };

  /// Serial mode: the object a parked rank sleeps on (see "Serial grant
  /// path" in the header comment). A post before the wait is remembered.
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

  /// Parallel mode: one notify() record awaiting serial-order resolution.
  /// `seg` is the SENDER's segment start at post time — the record's
  /// position in the serial grant order (see header comment).
  struct NotifyRec {
    TimePs seg;
    int src;
    TimePs stamp;
  };

  struct RankSlot {
    State state = State::kUnstarted;
    /// Owner-written, lock-free, while granted; the grantor writes it under
    /// lock_ while parked. Everyone else reads it under lock_ (a park or
    /// window barrier orders it) or, stale-tolerant, for diagnostics.
    std::atomic<TimePs> clock{0};
    TimePs wake = kNever;
    /// Parallel mode: clock at this rank's last grant/gate/wait boundary —
    /// where the serial coordinator would have granted its current segment.
    /// Owner-written while running; grant_locked writes it at handoff.
    TimePs seg_start = 0;
    /// Parallel mode: notify() records not yet resolved. `pending` is the
    /// senders' inbox (guarded by notify_mu, existence hinted by
    /// has_notify); `retained` holds records whose serial position is
    /// beyond this rank's last resolved wait, owner/barrier-accessed only.
    std::mutex notify_mu;
    std::vector<NotifyRec> pending;
    std::atomic<bool> has_notify{false};
    std::vector<NotifyRec> retained;
    /// Parallel mode: authoritative wake recompute for the current
    /// kWaiting park (see the 3-arg wait_until). Points into the parked
    /// caller's frame; set under lock_ at park, cleared at grant. Null
    /// when the park's wake is a fixed local event.
    const std::function<TimePs()>* wake_fn = nullptr;
    std::condition_variable cv;  ///< parallel mode: grant signal (under lock_)
    Wakeup wakeup;               ///< serial mode: grant signal (after lock_)
  };

  /// Serial mode: picks the next rank to run and records its grant, or
  /// returns -1 (ranks still registering, everyone finished, or the run was
  /// cancelled — possibly by this very pick's deadlock or watchdog check).
  /// Does not wake the rank: the caller does, after releasing lock_, via
  /// hand_off or a direct post. Requires lock_ held and no rank running.
  int pick_next_locked();

  /// Serial mode: parks the granted `rank` in `state` (kReady, or kWaiting
  /// until `wake`), hands the grant on and blocks until re-granted. The
  /// serial body of gate() and wait_until(); returns at once when a
  /// kWaiting `wake` is already past.
  void park_serial(int rank, State state, TimePs wake);

  /// Serial mode, lock_ NOT held: `next` is what pick_next_locked returned
  /// when `rank` parked. Unless `rank` was re-granted itself, wakes `next`
  /// and sleeps until `rank`'s own grant (or cancellation).
  void hand_off(int rank, int next);

  // ---- Parallel (windowed) engine. All *_locked require lock_ held. ----
  /// Opens the next window: folds pending notifies, finds the minimum
  /// eligibility, runs the deadlock/watchdog checks (bit-identical
  /// messages to serial), and grants every rank strictly inside the window
  /// (up to max_concurrent_ at once; the rest drain via release_locked).
  void open_window_locked();
  /// Grants execution to `rank` (parallel mode).
  void grant_locked(int rank);
  /// An active rank stopped running: hand its slot to the next queued
  /// grant, or open the next window when it was the last one.
  void release_locked();
  /// Parks a granted rank in `state` (kReady or kWaiting, with `wake`) and
  /// blocks until the next grant. Parallel-mode slow path of gate() and
  /// wait_until(). `wake_fn` (may be null) is the barrier-time wake
  /// recompute for scan-derived wakes.
  void park_and_block(int rank, State state, TimePs wake,
                      const std::function<TimePs()>* wake_fn = nullptr);
  /// Shared body of the wait_until overloads.
  void wait_until_impl(int rank, TimePs wake,
                       const std::function<TimePs()>* refresh);
  /// Drains `rank`'s notify records and resolves them with the serial
  /// grant-order rule (header comment): records before the current
  /// segment's start are dropped, records before the (progressively
  /// lowered) wake are applied, later records stay retained. `park_clock`
  /// is the clock the rank would park at; `waiting` distinguishes a
  /// wait_until park (wake applies) from a gate park (everything up to the
  /// re-grant at `park_clock` is dropped). Returns the effective wake.
  /// Called by the owning rank thread and, for parked ranks, at the window
  /// barrier — never concurrently.
  TimePs resolve_notifies(int rank, RankSlot& slot, TimePs park_clock,
                          TimePs wake, bool waiting);
  /// Fast-path watchdog guard: true when advancing to `t` would outrun the
  /// stall threshold, in which case the rank must park so the next window
  /// open (which sees the authoritative minimum) decides whether to crash.
  bool would_stall(TimePs t) const {
    return diag_ != nullptr && stall_threshold_ > 0 &&
           t - progress_mark_.load(std::memory_order_relaxed) > stall_threshold_;
  }

  /// Parallel mode: blocks the calling rank until it is running (or
  /// cancellation).
  void block_until_running_locked(std::unique_lock<std::mutex>& lk, int rank);

  /// Cancels with `why`, fires diag_->on_crash (if any) while every parked
  /// rank is still frozen, then wakes everyone. Requires lock_ held.
  void crash_locked(const std::string& why);

  /// Parallel mode: open_window_locked's O(n) eligibility scan (the serial
  /// path reads the grant index instead).
  struct MinScan {
    int best = -1;
    TimePs best_time = kNever;
    bool any_unfinished = false;
  };
  MinScan min_eligibility_locked() const;
  /// Builds the serial-format "virtual-time deadlock: ..." message.
  std::string deadlock_message_locked() const;
  /// True (and crashes) when granting at `best_time` trips the watchdog.
  bool watchdog_trips_locked(int best, TimePs best_time);

  mutable std::mutex lock_;
  std::vector<RankSlot> ranks_;
  int running_ = -1;  ///< serial mode: the granted rank (-1 = none)
  /// Serial mode, the grant index: (eligibility, rank id) of every kReady
  /// rank (at its clock) and every kWaiting rank with a finite wake.
  std::set<std::pair<TimePs, int>> eligible_;
  int finished_ = 0;  ///< ranks that called finish()
  std::atomic<bool> cancelled_{false};
  std::string cancel_reason_;
  schedpt::ScheduleController* schedule_ = nullptr;
  TimePs lookahead_ = 0;
  DiagSink* diag_ = nullptr;
  TimePs stall_threshold_ = 0;  // 0 = watchdog off
  std::atomic<TimePs> progress_mark_{0};  ///< newest heartbeat() clock

  // Parallel mode. `par_` is fixed before any rank thread is released
  // (constructor + set_schedule, both pre-start), so rank threads read it
  // without the lock.
  bool par_ = false;
  int max_concurrent_ = 0;
  TimePs window_ = 0;  ///< lookahead window width
  std::atomic<TimePs> window_end_{0};
  int started_ = 0;  ///< ranks registered (first grant/window at size())
  int active_ = 0;   ///< granted-and-not-parked ranks this window
  std::vector<int> grant_queue_;  ///< this window's grants, in serial order
  std::size_t grant_next_ = 0;    ///< first not-yet-granted queue entry
};

/// Runs `body` once per rank on `nranks` host threads under a Coordinator.
/// Rethrows the first rank exception after all threads join.
void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body);

/// As above, with a schedule controller (may be null) deciding the
/// coordinator's kRankPick points within `lookahead` of the minimum clock,
/// an optional diagnostic sink + hang-watchdog threshold (see
/// Coordinator::set_diag), and a coordinator mode (`lookahead` doubles as
/// the parallel window width). On cancellation the StateError carries the
/// cancel reason.
void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body,
               schedpt::ScheduleController* schedule, TimePs lookahead,
               DiagSink* diag = nullptr, TimePs stall_threshold = 0,
               const CoordinatorSpec& coord_spec = {});

}  // namespace usw::sim
