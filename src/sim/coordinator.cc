#include "sim/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <thread>

#include "schedpt/schedule.h"
#include "support/log.h"

namespace usw::sim {

namespace {

/// Serial grant order: nondecreasing (eligibility, rank id) — the token
/// always goes to the minimum clock/wake, ties to the lowest rank.
bool grant_order_less(TimePs ta, int ra, TimePs tb, int rb) {
  return ta != tb ? ta < tb : ra < rb;
}

/// Atomic maximum: raises `target` to `value` if larger.
void atomic_max(std::atomic<TimePs>& target, TimePs value) {
  TimePs cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

int default_grant_cap() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : static_cast<int>(hc);
}

}  // namespace

CoordinatorSpec CoordinatorSpec::parse(const std::string& text) {
  CoordinatorSpec spec;
  if (text.empty() || text == "serial") return spec;
  const std::string kPrefix = "parallel";
  if (text.compare(0, kPrefix.size(), kPrefix) != 0)
    throw ConfigError("unknown coordinator '" + text +
                      "' (serial|parallel[:threads=N])");
  spec.mode = CoordinatorMode::kParallel;
  if (text.size() == kPrefix.size()) return spec;
  const std::string rest = text.substr(kPrefix.size());
  const std::string kThreads = ":threads=";
  if (rest.compare(0, kThreads.size(), kThreads) != 0)
    throw ConfigError("unknown coordinator option '" + text +
                      "' (serial|parallel[:threads=N])");
  const std::string num = rest.substr(kThreads.size());
  std::size_t used = 0;
  int n = 0;
  try {
    n = std::stoi(num, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != num.size() || num.empty() || n < 1)
    throw ConfigError("coordinator threads must be a positive integer, got '" +
                      num + "'");
  spec.max_concurrent = n;
  return spec;
}

std::string CoordinatorSpec::describe() const {
  if (!parallel()) return "serial";
  if (max_concurrent <= 0) return "parallel";
  return "parallel:threads=" + std::to_string(max_concurrent);
}

Coordinator::Coordinator(int nranks)
    : Coordinator(nranks, CoordinatorSpec{}, 0) {}

void Coordinator::Wakeup::wait() {
  while (sem_wait(&sem_) != 0)
    USW_ASSERT_MSG(errno == EINTR, "sem_wait failed");
}

Coordinator::Coordinator(int nranks, const CoordinatorSpec& spec, TimePs window)
    : ranks_(static_cast<std::size_t>(nranks)) {
  USW_ASSERT_MSG(nranks > 0, "coordinator needs at least one rank");
  USW_ASSERT_MSG(window >= 0, "negative coordinator window");
  // A zero window would grant only the minimum rank anyway; take the
  // cheaper serial path outright. Single-rank runs have nothing to overlap.
  par_ = spec.parallel() && window > 0 && nranks > 1;
  window_ = window;
  max_concurrent_ = spec.max_concurrent > 0 ? spec.max_concurrent
                                            : default_grant_cap();
}

void Coordinator::start(int rank) {
  int next = -1;
  {
    std::unique_lock<std::mutex> lk(lock_);
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    USW_ASSERT_MSG(slot.state == State::kUnstarted, "rank started twice");
    slot.state = State::kReady;
    slot.clock.store(0, std::memory_order_relaxed);
    ++started_;
    if (par_) {
      // Hold everyone at the starting line until every rank thread has
      // registered, then open the first window.
      if (started_ == size()) open_window_locked();
      block_until_running_locked(lk, rank);
      return;
    }
    // A crash before registration posted no wake-up for this rank.
    if (cancelled_.load(std::memory_order_relaxed)) throw Cancelled(cancel_reason_);
    eligible_.emplace(0, rank);
    // pick_next_locked holds everyone at the starting line until every
    // rank thread has registered; the last one to arrive grants.
    if (running_ < 0) next = pick_next_locked();
  }
  hand_off(rank, next);
}

void Coordinator::finish(int rank) {
  int next = -1;
  {
    std::unique_lock<std::mutex> lk(lock_);
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    USW_ASSERT_MSG(slot.state == State::kRunning ||
                       cancelled_.load(std::memory_order_relaxed),
                   "finish requires the grant");
    const bool was_running = slot.state == State::kRunning;
    slot.state = State::kFinished;
    ++finished_;
    if (par_) {
      if (was_running && !cancelled_.load(std::memory_order_relaxed))
        release_locked();
    } else if (running_ == rank) {
      running_ = -1;
      next = pick_next_locked();
    }
  }
  if (next >= 0) ranks_[static_cast<std::size_t>(next)].wakeup.post();
}

TimePs Coordinator::now(int rank) const {
  // The clock is atomic, so no lock: the owner reads its own writes, and
  // any cross-thread reader (diagnostics) tolerates a stale value.
  return ranks_.at(static_cast<std::size_t>(rank))
      .clock.load(std::memory_order_relaxed);
}

void Coordinator::advance(int rank, TimePs dt) {
  USW_ASSERT_MSG(dt >= 0, "cannot advance virtual time backwards");
  // Lock-free owner write: only the granted rank's thread mutates its
  // clock (a parked rank's clock is written by its grantor, under lock_).
  std::atomic<TimePs>& clock = ranks_.at(static_cast<std::size_t>(rank)).clock;
  clock.store(clock.load(std::memory_order_relaxed) + dt,
              std::memory_order_relaxed);
}

void Coordinator::gate(int rank) {
  if (par_) {
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    if (!cancelled_.load(std::memory_order_relaxed)) {
      const TimePs t = slot.clock.load(std::memory_order_relaxed);
      // Still strictly inside the window: every message that could be
      // matchable at t was already enqueued when the window opened (sends
      // from concurrently-running ranks arrive at or after the window
      // end), so observing shared state now is exactly as safe as holding
      // the serial token. Serial would park kReady here and be re-granted
      // at the same clock — a segment boundary, nothing more.
      if (t < window_end_.load(std::memory_order_relaxed) && !would_stall(t)) {
        slot.seg_start = t;
        return;
      }
    }
    park_and_block(rank, State::kReady, kNever);
    return;
  }
  park_serial(rank, State::kReady, kNever);
}

void Coordinator::wait_until(int rank, TimePs wake) {
  wait_until_impl(rank, wake, nullptr);
}

void Coordinator::wait_until(int rank, TimePs wake,
                             const std::function<TimePs()>& refresh) {
  wait_until_impl(rank, wake, &refresh);
}

void Coordinator::wait_until_impl(int rank, TimePs wake,
                                  const std::function<TimePs()>* refresh) {
  if (par_) {
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    if (!cancelled_.load(std::memory_order_relaxed)) {
      const TimePs t = slot.clock.load(std::memory_order_relaxed);
      if (wake != kNever && wake <= t) return;  // already past the event:
                                                // serial never parks, so no
                                                // segment boundary either
      // Serial would park kWaiting here; pending notify records may lower
      // the wake (never below the clock). Resolve them first.
      const TimePs w = resolve_notifies(rank, slot, t, wake, true);
      if (w <= t) {
        // A recorded arrival (from a sender granted after this rank's
        // segment) fires the wait at the current clock, exactly as the
        // serial wake-up at max(stamp, clock) would.
        slot.seg_start = t;
        return;
      }
      // An effective wake strictly inside the window cannot be preempted
      // by any further notify: in-window sends arrive at or after the
      // window end, and every earlier record was resolved above. Jump.
      if (w != kNever && w < window_end_.load(std::memory_order_relaxed) &&
          !would_stall(w)) {
        slot.clock.store(w, std::memory_order_relaxed);
        slot.seg_start = w;
        return;
      }
      park_and_block(rank, State::kWaiting, w, refresh);
      return;
    }
    park_and_block(rank, State::kWaiting, wake);
    return;
  }
  park_serial(rank, State::kWaiting, wake);
}

void Coordinator::park_serial(int rank, State state, TimePs wake) {
  int next = -1;
  {
    std::lock_guard<std::mutex> lk(lock_);
    if (cancelled_.load(std::memory_order_relaxed)) throw Cancelled(cancel_reason_);
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    USW_ASSERT_MSG(slot.state == State::kRunning, "parking a rank without a grant");
    const TimePs clock = slot.clock.load(std::memory_order_relaxed);
    if (state == State::kReady) {
      eligible_.emplace(clock, rank);
    } else {
      if (wake != kNever && wake <= clock) return;  // already past the event
      // A kNever waiter is not eligible until a notify gives it a wake.
      if (wake != kNever) eligible_.emplace(wake, rank);
      slot.wake = wake;
    }
    slot.state = state;
    running_ = -1;
    next = pick_next_locked();
  }
  hand_off(rank, next);
}

void Coordinator::notify(int rank, TimePs stamp, int src) {
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  if (par_) {
    // Recorded, not applied: whether serial would deliver or drop this
    // notification depends on where the send sits in the serial grant
    // order — its position is (sender's segment start, sender id). The
    // target resolves the record itself (resolve_notifies) at its next
    // wait or at the window barrier, whichever the serial rule demands.
    USW_ASSERT_MSG(src >= 0 && src < size(),
                   "parallel notify requires the posting rank");
    const TimePs seg = ranks_.at(static_cast<std::size_t>(src)).seg_start;
    {
      std::lock_guard<std::mutex> lk(slot.notify_mu);
      slot.pending.push_back(NotifyRec{seg, src, stamp});
    }
    slot.has_notify.store(true, std::memory_order_release);
    return;
  }
  std::lock_guard<std::mutex> lk(lock_);
  if (slot.state != State::kWaiting) return;  // will observe it when it polls
  const TimePs effective =
      std::max(stamp, slot.clock.load(std::memory_order_relaxed));
  if (effective < slot.wake) {
    if (slot.wake != kNever) eligible_.erase({slot.wake, rank});
    eligible_.emplace(effective, rank);
    slot.wake = effective;
  }
}

TimePs Coordinator::resolve_notifies(int rank, RankSlot& slot, TimePs park_clock,
                                     TimePs wake, bool waiting) {
  if (slot.has_notify.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(slot.notify_mu);
    slot.retained.insert(slot.retained.end(), slot.pending.begin(),
                         slot.pending.end());
    slot.pending.clear();
    slot.has_notify.store(false, std::memory_order_relaxed);
  }
  if (slot.retained.empty()) return wake;
  std::sort(slot.retained.begin(), slot.retained.end(),
            [](const NotifyRec& a, const NotifyRec& b) {
              return grant_order_less(a.seg, a.src, b.seg, b.src);
            });
  // For a wait park, records from before this rank's current segment fell
  // in an earlier interval: either serial already dropped them (the rank
  // was running or gate-parked) or they were applied/no-ops at an earlier
  // wait — see the header comment. For a gate park the re-grant happens at
  // park_clock, so everything up to that position is dropped too.
  const TimePs drop_bound = waiting ? slot.seg_start : park_clock;
  TimePs w = wake;
  std::vector<NotifyRec> keep;
  for (const NotifyRec& rec : slot.retained) {
    if (grant_order_less(rec.seg, rec.src, drop_bound, rank)) continue;
    if (waiting && grant_order_less(rec.seg, rec.src, w, rank)) {
      // Serial: the target is kWaiting when this send posts; the wake is
      // lowered to the arrival, but never below the parked clock.
      w = std::min(w, std::max(rec.stamp, park_clock));
    } else {
      keep.push_back(rec);  // serial posts this after the wake-up: it
                            // belongs to a later wait of this rank
    }
  }
  slot.retained.swap(keep);
  return w;
}

void Coordinator::cancel(const std::string& why) {
  std::lock_guard<std::mutex> lk(lock_);
  crash_locked(why);
}

bool Coordinator::cancelled() const {
  return cancelled_.load(std::memory_order_acquire);
}

std::string Coordinator::cancel_reason() const {
  std::lock_guard<std::mutex> lk(lock_);
  return cancel_reason_;
}

void Coordinator::set_diag(DiagSink* diag, TimePs stall_threshold) {
  USW_ASSERT_MSG(stall_threshold >= 0, "negative stall threshold");
  std::lock_guard<std::mutex> lk(lock_);
  USW_ASSERT_MSG(started_ == 0 && running_ < 0, "set_diag after ranks started");
  diag_ = diag;
  stall_threshold_ = stall_threshold;
}

void Coordinator::heartbeat(int rank) {
  atomic_max(progress_mark_, now(rank));
}

void Coordinator::crash_locked(const std::string& why) {
  if (cancelled_.load(std::memory_order_relaxed)) return;
  cancel_reason_ = why;
  cancelled_.store(true, std::memory_order_release);
  running_ = -1;
  // Snapshot + dump BEFORE waking anyone: parked ranks cannot unwind (and
  // destroy the state diagnostic providers point at) until the cv fires.
  if (diag_ != nullptr) {
    std::vector<RankStatus> status;
    status.reserve(ranks_.size());
    for (int r = 0; r < size(); ++r) {
      const RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
      char st = '?';
      switch (slot.state) {
        case State::kUnstarted: st = 'u'; break;
        case State::kReady: st = 'r'; break;
        case State::kRunning: st = 'R'; break;
        case State::kWaiting: st = 'w'; break;
        case State::kFinished: st = 'f'; break;
      }
      status.push_back(RankStatus{r, st, slot.clock.load(std::memory_order_relaxed),
                                  slot.wake});
    }
    diag_->on_crash(why, status);
  }
  for (auto& slot : ranks_) {
    if (par_) {
      slot.cv.notify_all();
    } else if (slot.state == State::kReady || slot.state == State::kWaiting) {
      // Parked (or about to sleep: the post is remembered). A rank granted
      // but not yet woken is posted by its grantor, which runs regardless.
      slot.wakeup.post();
    }
  }
}

void Coordinator::set_schedule(schedpt::ScheduleController* schedule,
                               TimePs lookahead) {
  USW_ASSERT_MSG(lookahead >= 0, "negative lookahead");
  std::lock_guard<std::mutex> lk(lock_);
  USW_ASSERT_MSG(started_ == 0 && running_ < 0,
                 "set_schedule after ranks started");
  schedule_ = schedule;
  lookahead_ = lookahead;
  // Fuzz/record/replay decisions form one globally ordered log; only a
  // total order over grants reproduces it. Degenerate to serial granting.
  if (schedule != nullptr) par_ = false;
}

Coordinator::MinScan Coordinator::min_eligibility_locked() const {
  MinScan scan;
  for (int r = 0; r < size(); ++r) {
    const RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
    switch (slot.state) {
      case State::kReady:
        scan.any_unfinished = true;
        if (slot.clock.load(std::memory_order_relaxed) < scan.best_time) {
          scan.best = r;
          scan.best_time = slot.clock.load(std::memory_order_relaxed);
        }
        break;
      case State::kWaiting:
        scan.any_unfinished = true;
        if (slot.wake != kNever && slot.wake < scan.best_time) {
          scan.best = r;
          scan.best_time = slot.wake;
        }
        break;
      case State::kUnstarted:
      case State::kRunning:
        USW_ASSERT_MSG(false, "eligibility scan with a running or unstarted rank");
        break;
      case State::kFinished:
        break;
    }
  }
  return scan;
}

std::string Coordinator::deadlock_message_locked() const {
  // Every unfinished rank is waiting on kNever: no event can ever fire.
  std::ostringstream os;
  os << "virtual-time deadlock:";
  for (int r = 0; r < size(); ++r) {
    const RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
    if (slot.state == State::kWaiting)
      os << " rank " << r
         << " waiting at t=" << slot.clock.load(std::memory_order_relaxed);
  }
  return os.str();
}

bool Coordinator::watchdog_trips_locked(int best, TimePs best_time) {
  // Hang watchdog: granting at best_time would mean no timestep has
  // completed for more than stall_threshold_ of virtual time — some rank
  // is spinning/retrying without making application progress.
  const TimePs mark = progress_mark_.load(std::memory_order_relaxed);
  if (diag_ != nullptr && stall_threshold_ > 0 && best_time != kNever &&
      best_time - mark > stall_threshold_) {
    std::ostringstream os;
    os << "hang watchdog: no step completed between t=" << mark
       << " and t=" << best_time << " ps (threshold " << stall_threshold_
       << " ps); stalled at rank " << best;
    crash_locked(os.str());
    return true;
  }
  return false;
}

int Coordinator::pick_next_locked() {
  USW_ASSERT(running_ < 0);
  if (cancelled_.load(std::memory_order_relaxed)) return -1;
  // Hold everyone at the starting line until every rank thread has
  // registered; otherwise an early rank could race ahead of a rank that is
  // still at virtual time zero, breaking the min-clock invariant.
  if (started_ < size()) return -1;
  if (eligible_.empty()) {
    // Nobody runs and nobody is eligible: every unfinished rank waits on
    // kNever.
    if (finished_ < size()) crash_locked(deadlock_message_locked());
    return -1;
  }
  auto granted = eligible_.begin();
  const auto [best_time, min_rank] = *granted;
  if (watchdog_trips_locked(min_rank, best_time)) return -1;
  int n_candidates = 1;
  if (schedule_ != nullptr) {
    // Schedule point: any rank whose effective time is STRICTLY inside
    // [best_time, best_time + lookahead_) may legally run next (see
    // set_schedule for the causality argument). Candidate 0 is the
    // canonical min-clock/min-rank choice so default == index 0; the rest
    // follow in ascending rank id.
    std::vector<decltype(granted)> candidates;
    for (auto it = std::next(granted);
         it != eligible_.end() && it->first - best_time < lookahead_; ++it)
      candidates.push_back(it);
    std::sort(candidates.begin(), candidates.end(),
              [](auto a, auto b) { return a->second < b->second; });
    candidates.insert(candidates.begin(), granted);
    n_candidates = static_cast<int>(candidates.size());
    const int pick =
        schedule_->choose(schedpt::PointKind::kRankPick, min_rank, n_candidates);
    granted = candidates[static_cast<std::size_t>(pick)];
  }
  const int best = granted->second;
  eligible_.erase(granted);
  RankSlot& chosen = ranks_[static_cast<std::size_t>(best)];
  if (chosen.state == State::kWaiting) {
    chosen.clock.store(
        std::max(chosen.clock.load(std::memory_order_relaxed), chosen.wake),
        std::memory_order_relaxed);
    chosen.wake = kNever;
  }
  chosen.state = State::kRunning;
  running_ = best;
  if (diag_ != nullptr)
    diag_->on_rank_pick(best, n_candidates,
                        chosen.clock.load(std::memory_order_relaxed));
  return best;
}

void Coordinator::hand_off(int rank, int next) {
  if (next == rank) return;  // still the minimum: re-granted, nobody to wake
  if (next >= 0) ranks_[static_cast<std::size_t>(next)].wakeup.post();
  ranks_[static_cast<std::size_t>(rank)].wakeup.wait();
  // Woken by a grant or by crash_locked, which sets cancelled_ (release)
  // after its one write of cancel_reason_.
  if (cancelled_.load(std::memory_order_acquire)) throw Cancelled(cancel_reason_);
}

void Coordinator::open_window_locked() {
  USW_ASSERT(active_ == 0);
  if (cancelled_.load(std::memory_order_relaxed)) return;
  grant_queue_.clear();
  grant_next_ = 0;
  // Resolve the notify records posted since the last barrier. Every rank
  // is parked, so the serial grant-order rule (resolve_notifies) can be
  // applied authoritatively: waiters may have their wake lowered, gate
  // parks drop everything up to their re-grant, and records positioned
  // after a rank's wake stay retained for its next wait.
  for (int r = 0; r < size(); ++r) {
    RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
    switch (slot.state) {
      case State::kWaiting: {
        const TimePs clock = slot.clock.load(std::memory_order_relaxed);
        slot.wake = resolve_notifies(r, slot, clock, slot.wake, true);
        // Scan-derived wakes are recomputed here, where every push of the
        // closed window is mutex-ordered before us: an in-window scan can
        // race a concurrent sender whose serial position precedes it, and
        // the notify fold above intentionally drops that class of record
        // (see the 3-arg wait_until). Clamped to the park clock — serial
        // would spin at the clock, never park below it.
        if (slot.wake_fn != nullptr)
          slot.wake =
              std::min(slot.wake, std::max((*slot.wake_fn)(), clock));
        break;
      }
      case State::kReady:
        resolve_notifies(r, slot,
                         slot.clock.load(std::memory_order_relaxed), kNever,
                         false);
        break;
      case State::kFinished:
        // Serial drops notifies to finished ranks.
        if (slot.has_notify.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> nlk(slot.notify_mu);
          slot.pending.clear();
          slot.has_notify.store(false, std::memory_order_relaxed);
        }
        slot.retained.clear();
        break;
      case State::kUnstarted:
      case State::kRunning:
        break;
    }
  }
  const MinScan scan = min_eligibility_locked();
  if (scan.best < 0) {
    if (!scan.any_unfinished) return;  // everyone done
    crash_locked(deadlock_message_locked());
    return;
  }
  if (watchdog_trips_locked(scan.best, scan.best_time)) return;
  // Window [best_time, best_time + window_): strictness keeps it causal
  // (a message sent at S >= best_time arrives at S + window_ >= the window
  // end, so no in-window rank can observe another's sends).
  const TimePs end = scan.best_time > kNever - window_
                         ? kNever
                         : scan.best_time + window_;
  window_end_.store(end, std::memory_order_relaxed);
  struct Grant {
    TimePs time;
    int rank;
  };
  std::vector<Grant> grants;
  for (int r = 0; r < size(); ++r) {
    const RankSlot& slot = ranks_[static_cast<std::size_t>(r)];
    TimePs eff = kNever;
    if (slot.state == State::kReady)
      eff = slot.clock.load(std::memory_order_relaxed);
    else if (slot.state == State::kWaiting && slot.wake != kNever)
      eff = slot.wake;
    if (eff != kNever && (r == scan.best || eff - scan.best_time < window_))
      grants.push_back(Grant{eff, r});
  }
  // Grant in serial order (time, then rank id) so the diagnostic pick ring
  // and the capped rollout follow the same sequence the token would.
  std::sort(grants.begin(), grants.end(), [](const Grant& a, const Grant& b) {
    return a.time != b.time ? a.time < b.time : a.rank < b.rank;
  });
  grant_queue_.reserve(grants.size());
  for (const Grant& g : grants) grant_queue_.push_back(g.rank);
  while (grant_next_ < grant_queue_.size() && active_ < max_concurrent_)
    grant_locked(grant_queue_[grant_next_++]);
}

void Coordinator::grant_locked(int rank) {
  RankSlot& slot = ranks_[static_cast<std::size_t>(rank)];
  USW_ASSERT_MSG(slot.state == State::kReady || slot.state == State::kWaiting,
                 "granting a rank that is not parked");
  if (slot.state == State::kWaiting) {
    slot.clock.store(
        std::max(slot.clock.load(std::memory_order_relaxed), slot.wake),
        std::memory_order_relaxed);
    slot.wake = kNever;
  }
  // The grant starts a new serial segment at the rank's (possibly raised)
  // clock — the eligibility the serial token would have granted at.
  slot.seg_start = slot.clock.load(std::memory_order_relaxed);
  slot.state = State::kRunning;
  ++active_;
  if (diag_ != nullptr)
    diag_->on_rank_pick(rank, 1, slot.clock.load(std::memory_order_relaxed));
  slot.cv.notify_all();
}

void Coordinator::release_locked() {
  USW_ASSERT(active_ > 0);
  --active_;
  if (grant_next_ < grant_queue_.size()) {
    grant_locked(grant_queue_[grant_next_++]);
  } else if (active_ == 0) {
    open_window_locked();
  }
}

void Coordinator::park_and_block(int rank, State state, TimePs wake,
                                 const std::function<TimePs()>* wake_fn) {
  std::unique_lock<std::mutex> lk(lock_);
  if (cancelled_.load(std::memory_order_relaxed)) throw Cancelled(cancel_reason_);
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  USW_ASSERT_MSG(slot.state == State::kRunning, "parking a rank without a grant");
  slot.state = state;
  slot.wake = wake;
  slot.wake_fn = wake_fn;
  release_locked();
  try {
    block_until_running_locked(lk, rank);
  } catch (...) {
    slot.wake_fn = nullptr;  // wake_fn points into this (unwinding) frame
    throw;
  }
  slot.wake_fn = nullptr;
}

void Coordinator::block_until_running_locked(std::unique_lock<std::mutex>& lk, int rank) {
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  slot.cv.wait(lk, [this, &slot] {
    return cancelled_.load(std::memory_order_relaxed) ||
           slot.state == State::kRunning;
  });
  if (cancelled_.load(std::memory_order_relaxed)) throw Cancelled(cancel_reason_);
}

void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body) {
  run_ranks(nranks, body, nullptr, 0);
}

void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body,
               schedpt::ScheduleController* schedule, TimePs lookahead,
               DiagSink* diag, TimePs stall_threshold,
               const CoordinatorSpec& coord_spec) {
  Coordinator coord(nranks, coord_spec, lookahead);
  if (schedule != nullptr) coord.set_schedule(schedule, lookahead);
  if (diag != nullptr) coord.set_diag(diag, stall_threshold);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&coord, &body, &errors, r] {
      try {
        coord.start(r);
        body(coord, r);
        coord.finish(r);
      } catch (const Cancelled&) {
        // Another rank failed (or deadlock); its error is reported below.
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        coord.cancel("rank " + std::to_string(r) + " threw: " + e.what());
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        coord.cancel("rank " + std::to_string(r) + " threw an exception");
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
  // A deadlock (or watchdog stall) cancels every rank with sim::Cancelled,
  // which the lambda swallows; surface it as a StateError here.
  if (coord.cancelled())
    throw StateError("simulation did not complete (" + coord.cancel_reason() + ")");
}

}  // namespace usw::sim
