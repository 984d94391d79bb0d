#include "obs/flight.h"

#include <algorithm>
#include <limits>

#include "support/error.h"

namespace usw::obs {

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kRankPick: return "rank_pick";
    case FlightKind::kStepBegin: return "step_begin";
    case FlightKind::kStepEnd: return "step_end";
    case FlightKind::kMsgSend: return "msg_send";
    case FlightKind::kMsgMatch: return "msg_match";
    case FlightKind::kMsgLost: return "msg_lost";
    case FlightKind::kMsgRetransmit: return "msg_retransmit";
    case FlightKind::kMsgDelayed: return "msg_delayed";
    case FlightKind::kGroupDegraded: return "group_degraded";
    case FlightKind::kCheckpoint: return "checkpoint";
    case FlightKind::kRestart: return "restart";
    case FlightKind::kTaskBegin: return "task_begin";
    case FlightKind::kTaskEnd: return "task_end";
    case FlightKind::kOffloadBegin: return "offload_begin";
    case FlightKind::kOffloadEnd: return "offload_end";
    case FlightKind::kKernelBegin: return "kernel_begin";
    case FlightKind::kKernelEnd: return "kernel_end";
    case FlightKind::kSendPosted: return "send_posted";
    case FlightKind::kSendDone: return "send_done";
    case FlightKind::kRecvPosted: return "recv_posted";
    case FlightKind::kRecvDone: return "recv_done";
    case FlightKind::kReduceBegin: return "reduce_begin";
    case FlightKind::kReduceEnd: return "reduce_end";
    case FlightKind::kWaitBegin: return "wait_begin";
    case FlightKind::kWaitEnd: return "wait_end";
    case FlightKind::kCpeStall: return "cpe_stall";
    case FlightKind::kOffloadFail: return "offload_fail";
    case FlightKind::kOffloadRetry: return "offload_retry";
    case FlightKind::kBackoffEnd: return "backoff_end";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : slots_(capacity) {}

void FlightRecorder::record(FlightKind kind, TimePs time, std::int64_t a,
                            std::int64_t b, std::int64_t c) {
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  USW_ASSERT(a >= kMin32 && a <= kMax32);
  USW_ASSERT(b >= FlightEvent::kBMin && b <= FlightEvent::kBMax);
  USW_ASSERT(c >= kMin32 && c <= kMax32);
  const FlightEvent event(time, kind, static_cast<std::int32_t>(a), b,
                          static_cast<std::int32_t>(c));
  if (logging_) log_.push_back(event);
  if (slots_.empty()) return;
  slots_[static_cast<std::size_t>(head_ % slots_.size())] = event;
  ++head_;
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t head = recorded();
  return head > slots_.size() ? head - slots_.size() : 0;
}

std::vector<RingEvent> FlightRecorder::snapshot() const {
  std::vector<RingEvent> out;
  if (slots_.empty()) return out;
  const std::uint64_t n = std::min<std::uint64_t>(head_, slots_.size());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t seq = head_ - n; seq < head_; ++seq)
    out.push_back(RingEvent{seq, slots_[static_cast<std::size_t>(seq % slots_.size())]});
  return out;
}

}  // namespace usw::obs
