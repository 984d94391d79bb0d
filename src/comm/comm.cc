#include "comm/comm.h"

#include <algorithm>
#include <cstring>

#include "obs/flight.h"
#include "support/error.h"
#include "support/log.h"

namespace usw::comm {

namespace {
/// Tag space reserved for collectives; user tags (26 base bits + 4 step
/// bits, see task/graph.h) must stay below this.
constexpr int kCollectiveTagBase = 1 << 30;

/// RequestId layout: low bits index the request table, high bits carry the
/// table epoch. 2^40 requests per step and 2^24 epochs are both far beyond
/// any simulated run.
constexpr std::size_t kEpochShift = 40;
constexpr std::size_t kIndexMask = (std::size_t{1} << kEpochShift) - 1;
}  // namespace

Network::Network(int nranks, const hw::CostModel& cost)
    : cost_(cost), mailboxes_(static_cast<std::size_t>(nranks)),
      link_free_(static_cast<std::size_t>(nranks), 0) {
  USW_ASSERT_MSG(nranks > 0, "network needs at least one rank");
}

TimePs Network::reserve_link(int src, TimePs post_time, std::uint64_t bytes) {
  TimePs& free = link_free_.at(static_cast<std::size_t>(src));
  const TimePs start = std::max(post_time, free);
  const TimePs wire = seconds_to_ps(static_cast<double>(bytes) /
                                    cost_.params().net_bw_bytes_per_s);
  free = start + wire;
  return free;
}

Network::Delivery Network::deliver(Message msg, int attempt) {
  USW_ASSERT(msg.dst >= 0 && msg.dst < size());
  Delivery result{DeliveryStatus::kDelivered, msg.arrival};
  if (fault_ != nullptr) {
    if (attempt < kMaxSendAttempts && fault_->msg_lost(msg.seq, attempt)) {
      result.status = DeliveryStatus::kLost;
      return result;  // dropped on the wire: never enqueued
    }
    if (const auto factor = fault_->msg_delay_factor(msg.seq, attempt)) {
      const double extra = (*factor - 1.0) *
                           static_cast<double>(cost_.params().net_latency);
      msg.arrival += static_cast<TimePs>(extra);
      result.status = DeliveryStatus::kDelayed;
      result.arrival = msg.arrival;
    }
  }
  // The mailbox stays in seq order. Messages arrive in seq order, except a
  // retransmit, which reuses the seq of its lost first transmission: it
  // goes where that one would have been.
  std::vector<Message>& box = mailboxes_[static_cast<std::size_t>(msg.dst)];
  auto at = box.end();
  if (!box.empty() && box.back().seq > msg.seq)
    at = std::upper_bound(
        box.begin(), box.end(), msg.seq,
        [](std::uint64_t seq, const Message& m) { return seq < m.seq; });
  box.insert(at, std::move(msg));
  return result;
}

Comm::Comm(Network& net, sim::Coordinator& coord, int rank,
           hw::PerfCounters* counters)
    : net_(net), coord_(coord), rank_(rank), counters_(counters) {
  USW_ASSERT(rank >= 0 && rank < net.size());
}

RequestId Comm::make_id(std::size_t index) const {
  USW_ASSERT_MSG(index <= kIndexMask, "request table overflow");
  return (epoch_ << kEpochShift) | index;
}

Comm::Request& Comm::checked(RequestId id) {
  const std::size_t epoch = id >> kEpochShift;
  const std::size_t index = id & kIndexMask;
  if (epoch != epoch_)
    throw StateError(
        "RequestId from a released request table (reset_requests was called "
        "since it was issued)");
  if (index >= requests_.size())
    throw StateError("invalid RequestId: slot " + std::to_string(index) +
                     " of " + std::to_string(requests_.size()));
  return requests_[index];
}

const Comm::Request& Comm::checked(RequestId id) const {
  return const_cast<Comm*>(this)->checked(id);
}

TimePs Comm::retransmit_timeout(std::uint64_t bytes) const {
  const hw::MachineParams& p = net_.cost().params();
  return 4 * (net_.cost().message_transfer(bytes) + p.mpi_sw_latency +
              p.net_latency);
}

void Comm::maybe_retransmit(Request& req) {
  if (!retransmit_ || !req.lost || coord_.now(rank_) < req.complete_stamp) return;
  const TimePs post = net_.cost().mpi_post_overhead();
  coord_.advance(rank_, post);
  if (counters_ != nullptr) {
    counters_->comm_time += post;
    counters_->fault_retries += 1;
    counters_->messages_sent += 1;
    counters_->bytes_sent += req.bytes;
    counters_->mpi_posts += 1;
  }
  Message msg;
  msg.src = rank_;
  msg.dst = req.peer;
  msg.tag = req.tag;
  msg.bytes = req.bytes;
  // The original transmission never reached a mailbox, so reusing its seq
  // preserves the MPI non-overtaking order.
  msg.seq = req.msg_seq;
  msg.payload = req.payload;  // keep our copy: this attempt may be lost too
  const int attempt = ++req.attempts;
  const TimePs injected = net_.reserve_link(rank_, coord_.now(rank_), req.bytes);
  msg.arrival = injected + net_.cost().params().net_latency +
                net_.cost().params().mpi_sw_latency;
  if (flight_ != nullptr)
    flight_->record(obs::FlightKind::kMsgRetransmit, coord_.now(rank_), req.peer,
                    static_cast<std::int64_t>(req.msg_seq), attempt);
  const Network::Delivery d = net_.deliver(std::move(msg), attempt);
  if (d.status == Network::DeliveryStatus::kLost) {
    if (counters_ != nullptr) counters_->fault_injected += 1;
    if (flight_ != nullptr)
      flight_->record(obs::FlightKind::kMsgLost, coord_.now(rank_), req.peer,
                      static_cast<std::int64_t>(req.msg_seq), attempt);
    req.complete_stamp = injected + retransmit_timeout(req.bytes);
  } else {
    if (d.status == Network::DeliveryStatus::kDelayed && counters_ != nullptr)
      counters_->fault_injected += 1;
    req.lost = false;
    req.payload.clear();
    req.complete_stamp = injected;
    coord_.notify(req.peer, d.arrival);
  }
}

bool Comm::loss_armed() const {
  return net_.fault_plan() != nullptr &&
         net_.fault_plan()->has(fault::FaultKind::kMsgLoss);
}

RequestId Comm::post_send(int dst, int tag, std::uint64_t bytes,
                          std::vector<std::byte> payload) {
  USW_ASSERT_MSG(dst >= 0 && dst < size(), "send to invalid rank");
  USW_ASSERT_MSG(dst != rank_, "self-sends are not modeled; use local copies");
  const TimePs post = net_.cost().mpi_post_overhead();
  coord_.advance(rank_, post);
  if (counters_ != nullptr) {
    counters_->comm_time += post;
    counters_->messages_sent += 1;
    counters_->bytes_sent += bytes;
    counters_->mpi_posts += 1;
  }

  Message msg;
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  msg.bytes = bytes;
  msg.seq = net_.next_seq();
  msg.payload = std::move(payload);

  const TimePs now = coord_.now(rank_);
  // The sender's NIC serializes injections; latency applies after the last
  // byte leaves the link.
  const TimePs injected = net_.reserve_link(rank_, now, bytes);
  msg.arrival =
      injected + net_.cost().params().net_latency + net_.cost().params().mpi_sw_latency;

  Request req;
  req.kind = Kind::kSend;
  req.peer = dst;
  req.tag = tag;
  req.bytes = bytes;
  req.attempts = 1;
  req.msg_seq = msg.seq;
  // Keep a retransmit copy of the payload only while loss injection could
  // drop this message; fault-free runs pay nothing.
  if (loss_armed()) req.payload = msg.payload;

  if (flight_ != nullptr)
    flight_->record(obs::FlightKind::kMsgSend, now, dst,
                    static_cast<std::int64_t>(req.msg_seq),
                    static_cast<std::int64_t>(bytes));
  const Network::Delivery d = net_.deliver(std::move(msg), 1);
  if (d.status == Network::DeliveryStatus::kLost) {
    if (counters_ != nullptr) counters_->fault_injected += 1;
    if (flight_ != nullptr)
      flight_->record(obs::FlightKind::kMsgLost, now, dst,
                      static_cast<std::int64_t>(req.msg_seq), 1);
    // The sender cannot see the loss; it notices the missing ack at a
    // cost-model-derived timeout and retransmits (maybe_retransmit).
    // complete_stamp doubles as that deadline while `lost` is set, so
    // earliest_known_completion() wakes the rank exactly then. With
    // retransmission disabled there is no deadline: the send can never
    // complete, which the coordinator reports as a deadlock.
    req.lost = true;
    req.complete_stamp =
        retransmit_ ? injected + retransmit_timeout(bytes) : sim::kNever;
  } else {
    if (d.status == Network::DeliveryStatus::kDelayed) {
      if (counters_ != nullptr) counters_->fault_injected += 1;
      if (flight_ != nullptr)
        flight_->record(obs::FlightKind::kMsgDelayed, now, dst,
                        static_cast<std::int64_t>(req.msg_seq));
    }
    // Eager protocol: the send completes locally once the message has been
    // injected into the network.
    req.complete_stamp = injected;
    req.payload.clear();
    coord_.notify(dst, d.arrival);
  }

  requests_.push_back(std::move(req));
  return make_id(requests_.size() - 1);
}

RequestId Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  std::vector<std::byte> payload(data.begin(), data.end());
  return post_send(dst, tag, data.size(), std::move(payload));
}

RequestId Comm::isend(int dst, int tag, std::vector<std::byte>&& data) {
  const std::uint64_t bytes = data.size();
  return post_send(dst, tag, bytes, std::move(data));
}

RequestId Comm::isend_bytes(int dst, int tag, std::uint64_t bytes) {
  return post_send(dst, tag, bytes, {});
}

RequestId Comm::irecv(int src, int tag) {
  USW_ASSERT_MSG(src >= 0 && src < size(), "recv from invalid rank");
  USW_ASSERT_MSG(src != rank_, "self-receives are not modeled");
  const TimePs post = net_.cost().mpi_post_overhead();
  coord_.advance(rank_, post);
  if (counters_ != nullptr) {
    counters_->comm_time += post;
    counters_->mpi_posts += 1;
  }
  Request req;
  req.kind = Kind::kRecv;
  req.peer = src;
  req.tag = tag;
  requests_.push_back(std::move(req));
  return make_id(requests_.size() - 1);
}

void Comm::match_visible() {
  auto& box = net_.mailbox(rank_);
  if (box.empty()) return;
  const TimePs now = coord_.now(rank_);
  // Deliver messages in send order (MPI non-overtaking rule), which is the
  // mailbox's order (Network::deliver), to pending receives in post order.
  // Group the visible messages into (src, tag) classes in head-seq order.
  // MPI only orders delivery WITHIN a class, so the class interleaving is
  // a schedule point: the controller picks which class goes first. A
  // receive matches exactly one class, so the permutation cannot change
  // which request gets which payload — only the delivery order.
  std::vector<std::pair<int, int>>& classes = match_classes_;
  classes.clear();
  for (const Message& msg : box) {
    if (msg.arrival > now) continue;
    const std::pair<int, int> key{msg.src, msg.tag};
    if (std::find(classes.begin(), classes.end(), key) == classes.end())
      classes.push_back(key);
  }
  if (schedpt::ScheduleController* sc = net_.schedule();
      sc != nullptr && classes.size() > 1) {
    const int k = sc->choose(schedpt::PointKind::kMsgMatch, rank_,
                             static_cast<int>(classes.size()));
    std::rotate(classes.begin(), classes.begin() + k, classes.end());
  }
  // Consumed messages are marked and compacted out in ONE order-preserving
  // pass at the end: erasing from the middle per match is O(n^2) at the
  // mailbox depths a 1k-CG step produces, and the survivors must stay in
  // seq order for the next call.
  match_consumed_.assign(box.size(), 0);
  bool any_consumed = false;
  for (const auto& [src, tag] : classes) {
    for (std::size_t i = 0; i < box.size(); ++i) {
      Message& msg = box[i];
      if (match_consumed_[i] != 0 || msg.arrival > now || msg.src != src ||
          msg.tag != tag)
        continue;
      Request* target = nullptr;
      for (auto& req : requests_) {
        if (req.kind == Kind::kRecv && !req.done && req.peer == src &&
            req.tag == tag) {
          target = &req;
          break;
        }
      }
      if (target == nullptr) break;  // unexpected; whole class stays buffered
      target->done = true;
      target->bytes = msg.bytes;
      target->complete_stamp = msg.arrival;
      target->payload = std::move(msg.payload);
      if (counters_ != nullptr) {
        counters_->messages_received += 1;
        counters_->bytes_received += target->bytes;
      }
      if (flight_ != nullptr)
        flight_->record(obs::FlightKind::kMsgMatch, now, src,
                        static_cast<std::int64_t>(msg.seq),
                        static_cast<std::int64_t>(target->bytes));
      match_consumed_[i] = 1;
      any_consumed = true;
    }
  }
  if (any_consumed) {
    std::size_t write = 0;
    for (std::size_t i = 0; i < box.size(); ++i) {
      if (match_consumed_[i] != 0) continue;
      if (write != i) box[write] = std::move(box[i]);
      ++write;
    }
    box.resize(write);
  }
}

bool Comm::test(RequestId id) {
  Request& req = checked(id);
  if (req.done) return true;
  coord_.gate(rank_);
  const TimePs cost = net_.cost().mpi_test_overhead();
  coord_.advance(rank_, cost);
  if (counters_ != nullptr) counters_->comm_time += cost;
  if (req.kind == Kind::kSend) {
    if (req.lost) maybe_retransmit(req);
    if (!req.lost && coord_.now(rank_) >= req.complete_stamp) req.done = true;
  } else {
    match_visible();
  }
  return req.done;
}

std::size_t Comm::test_bulk(std::span<const RequestId> ids) {
  coord_.gate(rank_);
  const TimePs cost =
      net_.cost().mpi_test_overhead() +
      static_cast<TimePs>(ids.size()) * net_.cost().params().mpi_test_each;
  coord_.advance(rank_, cost);
  if (counters_ != nullptr) counters_->comm_time += cost;
  match_visible();
  std::size_t n_done = 0;
  for (RequestId id : ids) {
    Request& req = checked(id);
    if (!req.done && req.kind == Kind::kSend) {
      if (req.lost) maybe_retransmit(req);  // advances time on retransmit
      if (!req.lost && coord_.now(rank_) >= req.complete_stamp)
        req.done = true;
    }
    if (req.done) ++n_done;
  }
  return n_done;
}

bool Comm::done(RequestId id) const { return checked(id).done; }

void Comm::wait(RequestId id) {
  const RequestId ids[] = {id};
  wait_all(ids);
}

void Comm::wait_all(std::span<const RequestId> ids) {
  for (;;) {
    bool all_done = true;
    for (RequestId id : ids)
      if (!test(id)) all_done = false;
    if (all_done) return;
    const TimePs unwaited = drive_unwaited_sends(ids);
    const TimePs before = coord_.now(rank_);
    coord_.wait_until(rank_,
                      std::min(unwaited, earliest_known_completion(ids)));
    if (counters_ != nullptr) counters_->wait_time += coord_.now(rank_) - before;
  }
}

TimePs Comm::drive_unwaited_sends(std::span<const RequestId> ids) {
  // Only loss leaves a send that nobody but its own test would complete.
  // The scheduler's waits cover every open send, so on the runtime's paths
  // this finds nothing and moves no virtual time.
  if (!loss_armed()) return sim::kNever;
  waited_.assign(requests_.size(), 0);
  for (RequestId id : ids) waited_[id & kIndexMask] = 1;
  TimePs next = sim::kNever;
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    Request& req = requests_[i];
    if (waited_[i] != 0 || req.kind != Kind::kSend || !req.lost) continue;
    maybe_retransmit(req);
    if (req.lost) next = std::min(next, req.complete_stamp);
  }
  return next;
}

std::vector<std::byte> Comm::take_payload(RequestId id) {
  Request& req = checked(id);
  USW_ASSERT_MSG(req.done && req.kind == Kind::kRecv,
                 "take_payload of incomplete or non-receive request");
  return std::move(req.payload);
}

TimePs Comm::earliest_known_completion(std::span<const RequestId> ids) const {
  TimePs wake = sim::kNever;
  const auto& box = net_.mailbox(rank_);
  for (RequestId id : ids) {
    const Request& req = checked(id);
    if (req.done) continue;
    if (req.kind == Kind::kSend) {
      // For a lost send this is the retransmit deadline: the rank wakes
      // exactly when the resend is due.
      wake = std::min(wake, req.complete_stamp);
    } else {
      for (const Message& msg : box)
        if (msg.src == req.peer && msg.tag == req.tag)
          wake = std::min(wake, msg.arrival);
    }
  }
  return wake;
}

double Comm::allreduce(double value, int op) {
  // Binomial-tree reduce to rank 0 followed by a binomial-tree broadcast.
  // Collectives use a private tag space; every rank must call collectives
  // in the same order, which keeps the per-rank sequence numbers aligned.
  static_assert(sizeof(double) == 8);
  if (counters_ != nullptr) counters_->reductions += 1;
  const int n = size();
  if (n == 1) return value;
  const int tag = kCollectiveTagBase + (coll_seq_++ & 0x3fffffff);
  auto combine = [op](double a, double b) {
    if (op == 0) return a + b;
    if (op == 1) return std::min(a, b);
    return std::max(a, b);
  };
  double acc = value;
  const TimePs hop = net_.cost().params().coll_hop_latency;
  // The 8-byte payloads travel in buffers this rank received in earlier
  // collectives. Every rank receives as many messages per allreduce as it
  // sends (a child per reduce receive, a parent per broadcast receive), so
  // only a rank's first send ever allocates.
  auto send = [&](int peer, int to_tag) {
    std::vector<std::byte> buf;
    if (!coll_buffers_.empty()) {
      buf = std::move(coll_buffers_.back());
      coll_buffers_.pop_back();
    }
    buf.resize(8);
    std::memcpy(buf.data(), &acc, 8);
    wait(isend(peer, to_tag, std::move(buf)));
  };
  auto receive = [&](int peer, int from_tag) {
    const RequestId r = irecv(peer, from_tag);
    wait(r);
    std::vector<std::byte> payload = take_payload(r);
    USW_ASSERT(payload.size() == 8);
    double other = 0.0;
    std::memcpy(&other, payload.data(), 8);
    coll_buffers_.push_back(std::move(payload));
    return other;
  };
  // Reduce.
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rank_ & mask) != 0) {
      coord_.advance(rank_, hop);
      send(rank_ & ~mask, tag);
      break;
    }
    const int peer = rank_ | mask;
    if (peer < n) {
      coord_.advance(rank_, hop);
      acc = combine(acc, receive(peer, tag));
    }
  }
  // Broadcast.
  int mask = 1;
  while (mask < n) mask <<= 1;
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if ((rank_ & (2 * mask - 1)) == 0) {
      const int peer = rank_ | mask;
      if (peer < n) {
        coord_.advance(rank_, hop);
        send(peer, tag + (1 << 27));
      }
    } else if ((rank_ & (2 * mask - 1)) == mask) {
      coord_.advance(rank_, hop);
      acc = receive(rank_ & ~mask, tag + (1 << 27));
    }
  }
  return acc;
}

double Comm::allreduce_sum(double value) { return allreduce(value, 0); }
double Comm::allreduce_min(double value) { return allreduce(value, 1); }
double Comm::allreduce_max(double value) { return allreduce(value, 2); }

void Comm::barrier() { (void)allreduce(0.0, 0); }

void Comm::reset_requests() {
  USW_ASSERT_MSG(pending_requests() == 0,
                 "reset_requests with operations still pending");
  requests_.clear();
  ++epoch_;  // invalidates every RequestId issued before this call
}

std::size_t Comm::pending_requests() const {
  std::size_t n = 0;
  for (const auto& req : requests_)
    if (!req.done) ++n;
  return n;
}

std::vector<Comm::PendingInfo> Comm::pending_details() const {
  std::vector<PendingInfo> out;
  for (const auto& req : requests_) {
    if (req.done) continue;
    PendingInfo info;
    info.send = req.kind == Kind::kSend;
    info.peer = req.peer;
    info.tag = req.tag;
    info.bytes = req.bytes;
    info.stamp = req.complete_stamp;
    info.lost = req.lost;
    info.attempts = req.attempts;
    info.msg_seq = req.msg_seq;
    info.epoch = epoch_;
    out.push_back(info);
  }
  return out;
}

}  // namespace usw::comm
