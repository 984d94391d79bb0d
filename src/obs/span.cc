#include "obs/span.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "obs/observation.h"

namespace usw::obs {
namespace {

/// The part a flight kind plays in a span, if any.
enum class Edge { kNone, kBegin, kEnd, kPoint };

struct EdgeOf {
  SpanKind span = SpanKind::kTask;
  Edge edge = Edge::kNone;
  /// The begin kind the span is keyed on: an end closes the span its begin
  /// kind opened with the same operands.
  FlightKind opens = FlightKind::kRankPick;
};

EdgeOf edge_of(FlightKind k) {
  // kTaskBegin .. kWaitEnd are (begin, end) pairs in SpanKind order.
  static_assert(static_cast<int>(FlightKind::kWaitEnd) -
                    static_cast<int>(FlightKind::kTaskBegin) ==
                2 * static_cast<int>(SpanKind::kWait) + 1);
  const int i = static_cast<int>(k) - static_cast<int>(FlightKind::kTaskBegin);
  if (i >= 0 && i <= static_cast<int>(FlightKind::kWaitEnd) -
                         static_cast<int>(FlightKind::kTaskBegin))
    return {static_cast<SpanKind>(i / 2), i % 2 == 0 ? Edge::kBegin : Edge::kEnd,
            static_cast<FlightKind>(static_cast<int>(k) - i % 2)};
  switch (k) {
    case FlightKind::kCpeStall:
    case FlightKind::kOffloadFail: return {SpanKind::kFault, Edge::kPoint, k};
    case FlightKind::kOffloadRetry: return {SpanKind::kFault, Edge::kBegin, k};
    case FlightKind::kBackoffEnd:
      return {SpanKind::kFault, Edge::kEnd, FlightKind::kOffloadRetry};
    default: return {};
  }
}

/// v[i], or null when `i` is outside v.
template <typename T>
const T* at(const std::vector<T>& v, std::int64_t i) {
  return i >= 0 && static_cast<std::size_t>(i) < v.size()
             ? &v[static_cast<std::size_t>(i)]
             : nullptr;
}

/// Resolves span edges against one rank's skeletons: initialization events
/// (step -1) in `init`, timestep events in `step`. Operands outside the
/// skeleton resolve to unset ids and an empty name.
class Resolver {
 public:
  Resolver(const TaskGraphInfo& init, const TaskGraphInfo& step)
      : init_(init), step_(step) {}

  /// Sets `ids` and `name` of the span edge `e` of span kind `span`.
  void resolve(const FlightEvent& e, SpanKind span, EventIds& ids,
               std::string_view& name) {
    const TaskGraphInfo& g = e.a < 0 ? init_ : step_;
    ids = EventIds{};
    ids.step = static_cast<int>(e.a);
    name = {};
    if (span == SpanKind::kSend || span == SpanKind::kRecv) {
      ids.task = static_cast<int>(e.b);
      if (const MessageInfo* m = at(g.messages, e.c)) {
        ids.patch = m->patch;
        ids.peer = m->peer;
        ids.tag = m->tag;
        ids.bytes = m->bytes;
        name = m->label;
      }
      return;
    }
    if (span == SpanKind::kReduce) {
      if (const std::string* r = at(g.reductions, e.b)) name = *r;
      return;
    }
    const bool retry =
        e.kind == FlightKind::kOffloadRetry || e.kind == FlightKind::kBackoffEnd;
    if (span == SpanKind::kWait) name = e.b < 0 ? "idle" : "cpe-spin";
    if (retry) name = "retry backoff";
    if (e.b < 0) return;  // an idle wait
    ids.task = static_cast<int>(e.b);
    // Task spans have no group, and a retry's operand c is the attempt.
    if (span != SpanKind::kTask && !retry) ids.group = static_cast<int>(e.c);
    const TaskNodeInfo* t = at(g.tasks, e.b);
    if (t == nullptr) return;
    ids.patch = t->patch;
    if (!name.empty()) return;
    if (span != SpanKind::kFault) {
      name = t->label;
      return;
    }
    // A stall or failure: formatted at the first one of each task.
    std::string& fault = fault_names_[{e.kind, t}];
    if (fault.empty()) fault = std::string(to_string(e.kind)) + ' ' + t->label;
    name = fault;
  }

 private:
  const TaskGraphInfo& init_;
  const TaskGraphInfo& step_;
  std::map<std::pair<FlightKind, const TaskNodeInfo*>, std::string> fault_names_;
};

/// Matching key: the begin kind and the operands, identical at a span's
/// begin and end sites.
struct Key {
  FlightKind opens;
  std::int64_t a, b, c;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::size_t h = static_cast<std::size_t>(k.opens);
    for (const std::int64_t v : {k.a, k.b, k.c})
      h = (h ^ static_cast<std::size_t>(v)) * 0x100000001b3ULL;
    return h;
  }
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

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

std::vector<Span> build_spans(std::span<const FlightEvent> events,
                              const TaskGraphInfo& init, const TaskGraphInfo& step,
                              int rank) {
  Resolver resolve(init, step);
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

  for (const FlightEvent& e : events) {
    const EdgeOf edge = edge_of(e.kind);
    if (edge.edge == Edge::kNone) continue;
    last = std::max(last, e.time);
    const Key key{edge.opens, e.a, e.b, e.c};
    if (edge.edge == Edge::kEnd) {
      const auto it = open.find(key);
      if (it == open.end()) continue;  // unmatched end: tolerated, dropped
      Span& s = spans[it->second];
      s.end = std::max(s.begin, e.time);
      if (below[it->second] == kNone)
        open.erase(it);
      else
        it->second = below[it->second];
      continue;
    }
    if (edge.edge == Edge::kBegin) {
      const auto [it, fresh] = open.try_emplace(key, spans.size());
      below.push_back(fresh ? kNone : it->second);
      it->second = spans.size();
    } else {
      below.push_back(kNone);  // a point span opens and closes at once
    }
    Span& s = spans.emplace_back();
    s.begin = s.end = e.time;
    s.kind = edge.span;
    s.lane = lane_of(edge.span);
    s.rank = rank;
    std::string_view name;
    resolve.resolve(e, edge.span, s.ids, name);
    s.name = name;
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

std::string dump_span_edges(std::span<const FlightEvent> events,
                            const TaskGraphInfo& init, const TaskGraphInfo& step) {
  Resolver resolve(init, step);
  std::ostringstream os;
  EventIds i;
  std::string_view name;
  for (const FlightEvent& e : events) {
    const EdgeOf edge = edge_of(e.kind);
    if (edge.edge == Edge::kNone) continue;
    resolve.resolve(e, edge.span, i, name);
    const auto line = [&](const char* kind) {
      os << format_duration(e.time) << "  " << kind << "  " << name << "  [s" << i.step;
      if (i.task >= 0) os << " t" << i.task;
      if (i.patch >= 0) os << " p" << i.patch;
      if (i.peer >= 0) os << " peer" << i.peer;
      if (i.tag >= 0) os << " tag" << i.tag;
      if (i.group >= 0) os << " g" << i.group;
      if (i.bytes > 0) os << ' ' << i.bytes << 'B';
      os << "]\n";
    };
    if (edge.span != SpanKind::kFault) {
      line(to_string(e.kind));
      continue;
    }
    if (edge.edge != Edge::kEnd) line("fault_begin");
    if (edge.edge != Edge::kBegin) line("fault_end");
  }
  return os.str();
}

TimePs covered_time(std::span<const Span> spans, SpanKind kind) {
  TimePs total = 0;
  TimePs from = 0;
  TimePs to = 0;
  bool any = false;
  for (const Span& s : spans) {
    if (s.kind != kind) continue;
    if (any && s.begin <= to) {
      to = std::max(to, s.end);
      continue;
    }
    if (any) total += to - from;
    from = s.begin;
    to = s.end;
    any = true;
  }
  return any ? total + (to - from) : 0;
}

}  // namespace usw::obs
