#include "sim/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <thread>

#include "schedpt/schedule.h"
#include "support/log.h"

namespace usw::sim {

namespace {

/// Atomic maximum: raises `target` to `value` if larger.
void atomic_max(std::atomic<TimePs>& target, TimePs value) {
  TimePs cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Coordinator::Wakeup::wait() {
  while (sem_wait(&sem_) != 0)
    USW_ASSERT_MSG(errno == EINTR, "sem_wait failed");
}

Coordinator::GrantIndex::GrantIndex(int nranks)
    : pos_(static_cast<std::size_t>(nranks)) {
  heap_.reserve(pos_.size());
}

void Coordinator::GrantIndex::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  pos_[static_cast<std::size_t>(e.rank)] = i;
}

void Coordinator::GrantIndex::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Coordinator::GrantIndex::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void Coordinator::GrantIndex::push(int rank, TimePs time) {
  heap_.push_back(Entry{time, rank});
  sift_up(heap_.size() - 1);
}

void Coordinator::GrantIndex::lower(int rank, TimePs time) {
  const std::size_t i = pos_[static_cast<std::size_t>(rank)];
  USW_ASSERT(heap_[i].rank == rank && time <= heap_[i].time);
  heap_[i].time = time;
  sift_up(i);
}

void Coordinator::GrantIndex::erase(int rank) {
  const std::size_t i = pos_[static_cast<std::size_t>(rank)];
  USW_ASSERT(i < heap_.size() && heap_[i].rank == rank);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // The last entry fills the hole; it may belong above or below it.
  place(i, last);
  if (i > 0 && before(last, heap_[(i - 1) / 2]))
    sift_up(i);
  else
    sift_down(i);
}

void Coordinator::GrantIndex::within(TimePs window, std::vector<int>& out,
                                     std::vector<std::size_t>& stack) const {
  // A child is never before its parent, so the walk stops descending at
  // the first entry past the window.
  const TimePs best = heap_.front().time;
  stack.assign(1, 0);
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::size_t child = 2 * i + 1; child <= 2 * i + 2; ++child) {
      if (child >= heap_.size() || heap_[child].time - best >= window) continue;
      out.push_back(heap_[child].rank);
      stack.push_back(child);
    }
  }
}

Coordinator::Coordinator(int nranks)
    : ranks_(static_cast<std::size_t>(nranks)), eligible_(nranks) {
  USW_ASSERT_MSG(nranks > 0, "coordinator needs at least one rank");
  candidates_.reserve(ranks_.size());
  walk_.reserve(ranks_.size());
}

void Coordinator::start(int rank) {
  int next = -1;
  {
    std::lock_guard<std::mutex> lk(lock_);
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    USW_ASSERT_MSG(slot.state == State::kUnstarted, "rank started twice");
    slot.state = State::kReady;
    slot.clock.store(0, std::memory_order_relaxed);
    ++started_;
    // A crash before registration posted no wake-up for this rank.
    if (cancelled_.load(std::memory_order_relaxed)) throw Cancelled(cancel_reason_);
    eligible_.push(rank, 0);
    // pick_next_locked holds everyone at the starting line until every
    // rank thread has registered; the last one to arrive grants.
    if (running_ < 0) next = pick_next_locked();
  }
  hand_off(rank, next);
}

void Coordinator::finish(int rank) {
  int next = -1;
  {
    std::lock_guard<std::mutex> lk(lock_);
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    USW_ASSERT_MSG(slot.state == State::kRunning ||
                       cancelled_.load(std::memory_order_relaxed),
                   "finish requires the grant");
    slot.state = State::kFinished;
    ++finished_;
    if (running_ == rank) {
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

void Coordinator::gate(int rank) { park(rank, State::kReady, kNever); }

void Coordinator::wait_until(int rank, TimePs wake) {
  park(rank, State::kWaiting, wake);
}

void Coordinator::park(int rank, State state, TimePs wake) {
  int next = -1;
  {
    std::lock_guard<std::mutex> lk(lock_);
    if (cancelled_.load(std::memory_order_relaxed)) throw Cancelled(cancel_reason_);
    RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
    USW_ASSERT_MSG(slot.state == State::kRunning, "parking a rank without a grant");
    const TimePs clock = slot.clock.load(std::memory_order_relaxed);
    if (state == State::kReady) {
      eligible_.push(rank, clock);
    } else {
      if (wake != kNever && wake <= clock) return;  // already past the event
      // A kNever waiter is not eligible until a notify gives it a wake.
      if (wake != kNever) eligible_.push(rank, wake);
      slot.wake = wake;
    }
    slot.state = state;
    running_ = -1;
    next = pick_next_locked();
  }
  hand_off(rank, next);
}

void Coordinator::notify(int rank, TimePs stamp) {
  RankSlot& slot = ranks_.at(static_cast<std::size_t>(rank));
  std::lock_guard<std::mutex> lk(lock_);
  if (slot.state != State::kWaiting) return;  // will observe it when it polls
  const TimePs effective =
      std::max(stamp, slot.clock.load(std::memory_order_relaxed));
  if (effective < slot.wake) {
    if (slot.wake != kNever)
      eligible_.lower(rank, effective);
    else
      eligible_.push(rank, effective);
    slot.wake = effective;
  }
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
  // destroy the state diagnostic providers point at) until they are posted.
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
    if (slot.state == State::kReady || slot.state == State::kWaiting) {
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
  const auto [best_time, min_rank] = eligible_.top();
  if (watchdog_trips_locked(min_rank, best_time)) return -1;
  int best = min_rank;
  int n_candidates = 1;
  if (schedule_ != nullptr) {
    // Schedule point: any rank whose effective time is STRICTLY inside
    // [best_time, best_time + lookahead_) may legally run next (see
    // set_schedule for the causality argument). Candidate 0 is the
    // canonical min-clock/min-rank choice so default == index 0; the rest
    // follow in ascending rank id.
    candidates_.assign(1, min_rank);
    eligible_.within(lookahead_, candidates_, walk_);
    std::sort(candidates_.begin() + 1, candidates_.end());
    n_candidates = static_cast<int>(candidates_.size());
    const int pick =
        schedule_->choose(schedpt::PointKind::kRankPick, min_rank, n_candidates);
    best = candidates_[static_cast<std::size_t>(pick)];
  }
  eligible_.erase(best);
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

void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body) {
  run_ranks(nranks, body, nullptr, 0);
}

void run_ranks(int nranks, const std::function<void(Coordinator&, int)>& body,
               schedpt::ScheduleController* schedule, TimePs lookahead,
               DiagSink* diag, TimePs stall_threshold) {
  Coordinator coord(nranks);
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
