#include "obs/span.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/observation.h"

namespace usw::obs {
namespace {

/// The part a flight kind plays in a span, if any.
enum class Edge { kNone, kBegin, kEnd, kPoint };

struct EdgeOf {
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
    return {i % 2 == 0 ? Edge::kBegin : Edge::kEnd,
            static_cast<FlightKind>(static_cast<int>(k) - i % 2)};
  switch (k) {
    case FlightKind::kCpeStall:
    case FlightKind::kOffloadFail: return {Edge::kPoint, k};
    case FlightKind::kOffloadRetry: return {Edge::kBegin, k};
    case FlightKind::kBackoffEnd: return {Edge::kEnd, FlightKind::kOffloadRetry};
    default: return {};
  }
}

/// v[i], or null when `i` is outside v.
template <typename T>
const T* at(const std::vector<T>& v, std::int32_t i) {
  return i >= 0 && static_cast<std::size_t>(i) < v.size()
             ? &v[static_cast<std::size_t>(i)]
             : nullptr;
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Matching key: the begin kind and the operands, identical at a span's
/// begin and end sites.
struct Key {
  FlightKind opens;
  std::int64_t a, b, c;
  bool operator==(const Key&) const = default;
};

/// While a span is open, its `end` holds the index of the span it covers
/// under the same key (kNone: none); the span's real end replaces it when
/// the span closes. Open spans so cost no storage beyond the table below.
TimePs link_to(std::size_t below) { return static_cast<TimePs>(below); }
std::size_t below(const Span& open) { return static_cast<std::size_t>(open.end); }

/// The open spans: each key maps to the most recently opened span under it,
/// which links to the one opened before it (LIFO within a key; nested
/// same-key spans would be a recording bug, but LIFO at least keeps them
/// finite). A flat table with linear probing, at most half full; a key
/// leaves it when its last open span closes, by shifting the rest of its
/// probe run back, so no slot is ever a tombstone.
class OpenSpans {
 public:
  OpenSpans() : slots_(16) {}

  /// Opens span `span` under `key`; returns the span it covers there, or
  /// kNone when `key` had none open.
  std::size_t push(const Key& key, std::size_t span) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.top == kNone) {
        s = Slot{key, span};
        ++size_;
        return kNone;
      }
      if (s.key == key) return std::exchange(s.top, span);
    }
  }

  /// Closes the top span under `key` and returns it, or kNone when `key`
  /// has none open.
  std::size_t pop(const Key& key, const std::vector<Span>& spans) {
    std::size_t i = home(key);
    while (slots_[i].top != kNone && slots_[i].key != key) i = next(i);
    const std::size_t top = slots_[i].top;
    if (top == kNone) return kNone;
    if (below(spans[top]) != kNone)
      slots_[i].top = below(spans[top]);
    else
      erase(i);
    return top;
  }

  /// Calls f(top) for every key still open.
  template <typename F>
  void for_each_top(F&& f) const {
    for (const Slot& s : slots_)
      if (s.top != kNone) f(s.top);
  }

 private:
  struct Slot {
    Key key{};
    std::size_t top = kNone;  ///< kNone: the slot is free
  };

  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  std::size_t home(const Key& k) const {
    std::uint64_t h = static_cast<std::uint64_t>(k.opens);
    for (const std::int64_t v : {k.a, k.b, k.c})
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h ^ (h >> 32)) & (slots_.size() - 1);
  }

  /// Frees slot `hole`, moving each later member of its probe run whose
  /// home does not lie between the hole and that member into the hole.
  void erase(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); slots_[j].top != kNone; j = next(j)) {
      if (((j - home(slots_[j].key)) & mask) < ((j - hole) & mask)) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole].top = kNone;
    --size_;
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    for (const Slot& s : old) {
      if (s.top == kNone) continue;
      std::size_t i = home(s.key);
      while (slots_[i].top != kNone) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

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

struct SpanBuilder::State {
  std::vector<Span> spans;
  OpenSpans open;
  TimePs last = 0;  ///< the latest span-edge stamp so far
};

SpanBuilder::SpanBuilder() : state_(std::make_unique<State>()) {}
SpanBuilder::~SpanBuilder() = default;

void SpanBuilder::add(std::span<const FlightEvent> events) {
  State& st = *state_;
  std::vector<Span>& spans = st.spans;
  for (const FlightEvent& e : events) {
    const EdgeOf edge = edge_of(e.kind());
    if (edge.edge == Edge::kNone) continue;
    st.last = std::max(st.last, e.time());
    const Key key{edge.opens, e.a(), e.b(), e.c()};
    if (edge.edge == Edge::kEnd) {
      // An unmatched end is tolerated and dropped.
      const std::size_t i = st.open.pop(key, spans);
      if (i != kNone) spans[i].end = std::max(spans[i].begin, e.time());
      continue;
    }
    Span& s = spans.emplace_back();
    s.begin = e.time();
    // A point span opens and closes at once.
    s.end = edge.edge == Edge::kBegin ? link_to(st.open.push(key, spans.size() - 1))
                                      : e.time();
    // Span edges carry an int step, task and group or message index.
    s.step = e.a();
    s.b = static_cast<std::int32_t>(e.b());
    s.c = e.c();
    s.opened_by = edge.opens;
  }
}

void SpanBuilder::drain(FlightRecorder& recorder) {
  add(recorder.log());
  recorder.clear_log();
}

std::size_t SpanBuilder::size() const { return state_->spans.size(); }

void SpanBuilder::reserve(std::size_t n) { state_->spans.reserve(n); }

void SpanBuilder::roll_back(int step) {
  for (Span& s : state_->spans)
    if (s.step >= step) s.rolled_back = true;
}

std::vector<Span> SpanBuilder::finish() {
  State& st = *state_;
  std::vector<Span>& spans = st.spans;
  // Close whatever never ended at the latest stamp seen.
  st.open.for_each_top([&](std::size_t top) {
    for (std::size_t i = top; i != kNone;) {
      const std::size_t covered = below(spans[i]);
      spans[i].end = std::max(spans[i].begin, st.last);
      i = covered;
    }
  });

  // Begins are usually recorded in time order already; the check is one
  // pass, the sort moves every span.
  const auto by_begin = [](const Span& a, const Span& b) { return a.begin < b.begin; };
  if (!std::is_sorted(spans.begin(), spans.end(), by_begin))
    std::stable_sort(spans.begin(), spans.end(), by_begin);
  return std::move(spans);
}

namespace {

enum : std::uint32_t { kUnnamed, kIdle, kCpeSpin, kRetryBackoff };

bool is_retry(const Span& s) { return s.opened_by == FlightKind::kOffloadRetry; }

}  // namespace

SpanResolver::Graph::Graph(const TaskGraphInfo& g)
    : info(&g),
      task(g.tasks.size()),
      stall(g.tasks.size()),
      fail(g.tasks.size()),
      message(g.messages.size()),
      reduction(g.reductions.size()) {}

SpanResolver::SpanResolver(const TaskGraphInfo& init, const TaskGraphInfo& step)
    : init_(init), step_(step), names_{"", "idle", "cpe-spin", "retry backoff"} {}

EventIds SpanResolver::ids(const Span& s) const {
  const TaskGraphInfo& g = *graph(s.step).info;
  const SpanKind kind = s.kind();
  EventIds ids;
  ids.step = s.step;
  if (kind == SpanKind::kSend || kind == SpanKind::kRecv) {
    ids.task = s.b;
    if (const MessageInfo* m = at(g.messages, s.c)) {
      ids.patch = m->patch;
      ids.peer = m->peer;
      ids.tag = m->tag;
      ids.bytes = m->bytes;
    }
    return ids;
  }
  // A reduction's b indexes the reductions; an idle wait's b is -1.
  if (kind == SpanKind::kReduce || s.b < 0) return ids;
  ids.task = s.b;
  // Task spans have no group, and a retry's operand c is the attempt.
  if (kind != SpanKind::kTask && !is_retry(s)) ids.group = s.c;
  if (const TaskNodeInfo* t = at(g.tasks, s.b)) ids.patch = t->patch;
  return ids;
}

std::uint32_t SpanResolver::name(const Span& s) {
  Graph& g = graph(s.step);
  const auto i = [](std::int32_t v) { return static_cast<std::size_t>(v); };
  switch (s.kind()) {
    case SpanKind::kSend:
    case SpanKind::kRecv: {
      const MessageInfo* m = at(g.info->messages, s.c);
      return m == nullptr ? kUnnamed : intern(g.message[i(s.c)], m->label);
    }
    case SpanKind::kReduce: {
      const std::string* r = at(g.info->reductions, s.b);
      return r == nullptr ? kUnnamed : intern(g.reduction[i(s.b)], *r);
    }
    case SpanKind::kWait: return s.b < 0 ? kIdle : kCpeSpin;
    case SpanKind::kFault: {
      if (is_retry(s)) return kRetryBackoff;
      const TaskNodeInfo* t = at(g.info->tasks, s.b);
      if (t == nullptr) return kUnnamed;
      std::uint32_t& id =
          (s.opened_by == FlightKind::kCpeStall ? g.stall : g.fail)[i(s.b)];
      // A stall or failure: rare, so its name is formatted at its first use.
      return id != kUnnamed ? id
                            : intern(id, std::string(to_string(s.opened_by)) + ' ' + t->label);
    }
    default: {
      const TaskNodeInfo* t = at(g.info->tasks, s.b);
      return t == nullptr ? kUnnamed : intern(g.task[i(s.b)], t->label);
    }
  }
}

std::uint32_t SpanResolver::intern(std::uint32_t& id, std::string_view name) {
  if (id == kUnnamed) {
    id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
  }
  return id;
}

std::string dump_spans(std::span<const Span> spans, const TaskGraphInfo& init,
                       const TaskGraphInfo& step) {
  SpanResolver resolve(init, step);
  std::ostringstream os;
  for (const Span& s : spans) {
    const std::string_view name = resolve.names()[resolve.name(s)];
    const EventIds i = resolve.ids(s);
    os << format_duration(s.begin) << "  +" << format_duration(s.duration()) << "  "
       << to_string(s.kind()) << "  " << (name.empty() ? to_string(s.kind()) : name)
       << "  [s" << i.step;
    if (i.task >= 0) os << " t" << i.task;
    if (i.patch >= 0) os << " p" << i.patch;
    if (i.peer >= 0) os << " peer" << i.peer;
    if (i.tag >= 0) os << " tag" << i.tag;
    if (i.group >= 0) os << " g" << i.group;
    if (i.bytes > 0) os << ' ' << i.bytes << 'B';
    os << ']' << (s.rolled_back ? "  rolled back\n" : "\n");
  }
  return os.str();
}

TimePs covered_time(std::span<const Span> spans, SpanKind kind) {
  TimePs total = 0;
  TimePs from = 0;
  TimePs to = 0;
  bool any = false;
  for (const Span& s : spans) {
    if (s.kind() != kind) continue;
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
