#include "obs/span.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>

namespace usw::obs {
namespace {

using sim::EventKind;

/// Begin/end kinds of each span kind, in SpanKind order.
struct KindPair {
  SpanKind span;
  EventKind begin;
  EventKind end;
};

constexpr KindPair kPairs[] = {
    {SpanKind::kTask, EventKind::kTaskBegin, EventKind::kTaskEnd},
    {SpanKind::kOffload, EventKind::kOffloadBegin, EventKind::kOffloadEnd},
    {SpanKind::kKernel, EventKind::kKernelBegin, EventKind::kKernelEnd},
    {SpanKind::kSend, EventKind::kSendPosted, EventKind::kSendDone},
    {SpanKind::kRecv, EventKind::kRecvPosted, EventKind::kRecvDone},
    {SpanKind::kReduce, EventKind::kReduceBegin, EventKind::kReduceEnd},
    {SpanKind::kWait, EventKind::kWaitBegin, EventKind::kWaitEnd},
    {SpanKind::kFault, EventKind::kFaultBegin, EventKind::kFaultEnd},
};

/// Matching key: everything that identifies "the same" span at both its
/// begin and end sites. The label participates so hand-written traces
/// without ids still pair; `bytes` does not (informational only). The label
/// is a view into the trace, which outlives the pairing.
struct Key {
  SpanKind span;
  int step, task, patch, peer, tag, group;
  std::string_view label;

  Key(SpanKind k, const sim::TraceEvent& e)
      : span(k), step(e.ids.step), task(e.ids.task), patch(e.ids.patch),
        peer(e.ids.peer), tag(e.ids.tag), group(e.ids.group), label(e.label) {}
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::size_t h = std::hash<std::string_view>{}(k.label);
    for (const int v : {static_cast<int>(k.span), k.step, k.task, k.patch, k.peer,
                        k.tag, k.group})
      h = (h ^ static_cast<std::size_t>(static_cast<unsigned>(v))) * 0x100000001b3ULL;
    return h;
  }
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

const char* to_string(Lane lane) {
  switch (lane) {
    case Lane::kMpe: return "MPE";
    case Lane::kCpe: return "CPE";
    case Lane::kMpi: return "MPI";
  }
  return "?";
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTask: return "task";
    case SpanKind::kOffload: return "offload";
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kSend: return "send";
    case SpanKind::kRecv: return "recv";
    case SpanKind::kReduce: return "reduce";
    case SpanKind::kWait: return "wait";
    case SpanKind::kFault: return "fault";
  }
  return "?";
}

Lane lane_of(SpanKind kind) {
  switch (kind) {
    case SpanKind::kKernel: return Lane::kCpe;
    case SpanKind::kSend:
    case SpanKind::kRecv: return Lane::kMpi;
    default: return Lane::kMpe;
  }
}

std::vector<Span> build_spans(const sim::Trace& trace, int rank) {
  const std::vector<sim::TraceEvent>& events = trace.events();
  std::vector<Span> spans;
  spans.reserve(events.size() / 2);
  // Open spans only: key -> the most recently opened span under it, whose
  // `below` entry links to the one opened before it (LIFO within a key;
  // nested same-key spans would be a recording bug, but LIFO at least keeps
  // them finite). A key is erased when its last open span closes.
  std::unordered_map<Key, std::size_t, KeyHash> open;
  std::vector<std::size_t> below;
  below.reserve(events.size() / 2);
  TimePs last = 0;

  for (const sim::TraceEvent& e : events) {
    last = std::max(last, e.time);
    for (const KindPair& p : kPairs) {
      if (e.kind == p.begin) {
        const auto [it, fresh] = open.try_emplace(Key(p.span, e), spans.size());
        below.push_back(fresh ? kNone : it->second);
        it->second = spans.size();
        Span& s = spans.emplace_back();
        s.begin = s.end = e.time;
        s.kind = p.span;
        s.lane = lane_of(p.span);
        s.rank = rank;
        s.ids = e.ids;
        s.name = e.label;
        break;
      }
      if (e.kind == p.end) {
        const auto it = open.find(Key(p.span, e));
        if (it != open.end()) {
          Span& s = spans[it->second];
          s.end = std::max(s.begin, e.time);
          if (s.ids.bytes == 0) s.ids.bytes = e.ids.bytes;
          if (below[it->second] == kNone)
            open.erase(it);
          else
            it->second = below[it->second];
        }
        break;  // unmatched end: tolerated, dropped
      }
    }
  }
  // Close whatever never ended at the latest stamp seen.
  for (const auto& [key, top] : open)
    for (std::size_t i = top; i != kNone; i = below[i])
      spans[i].end = std::max(spans[i].begin, last);

  // Begins are usually recorded in time order already; the check is one
  // pass, the sort moves every span.
  const auto by_begin = [](const Span& a, const Span& b) { return a.begin < b.begin; };
  if (!std::is_sorted(spans.begin(), spans.end(), by_begin))
    std::stable_sort(spans.begin(), spans.end(), by_begin);
  return spans;
}

}  // namespace usw::obs
