#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_writer.h"

namespace usw::obs {
namespace {

/// Thread id of a span of `kind` in CPE group `group` within its rank's
/// process: MPE first, then one track per CPE group, MPI flight last.
int tid_of(SpanKind kind, int group) {
  switch (lane_of(kind)) {
    case Lane::kMpe: return 0;
    case Lane::kCpe: return 1 + (group > 0 ? group : 0);
    case Lane::kMpi: return 90;
  }
  return 0;
}

std::string tid_name(int tid) {
  if (tid == 0) return "MPE";
  if (tid == 90) return "MPI";
  return "CPE group " + std::to_string(tid - 1);
}

void name_metadata(JsonWriter& w, const char* what, int pid, int tid,
                   const std::string& name) {
  w.begin_object();
  w.kv("name", what);
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.key("args").begin_object().kv("name", name.c_str()).end_object();
  w.end_object();
}

void sort_metadata(JsonWriter& w, const char* what, int pid, int tid,
                   int index) {
  w.begin_object();
  w.kv("name", what);
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.key("args").begin_object().kv("sort_index", index).end_object();
  w.end_object();
}

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

/// The CPE group of a span that renders on a CPE track, as
/// SpanResolver::ids() resolves it: the group its edge recorded, unless it
/// has no task.
int cpe_group(const Span& s) { return s.b >= 0 ? s.c : -1; }

/// Appends the integer `v` to `text`.
template <typename Int>
void append(std::string& text, Int v) {
  char digits[20];
  text.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

/// The parts of one rank's span objects that only the rank, its skeletons
/// and a span's (opened_by, b, c) decide, each formatted once per rank: a
/// fragment holds the head (name, cat, and the keys up to "ts"), the
/// middle (pid, tid, and the keys up to "step") and the tail (the args
/// after step). A span formats only its two times and its step between
/// them.
///
/// Lookup is direct: per skeleton (init, timestep) and per flight kind
/// from kTaskBegin to kBackoffEnd, one entry per task, message (send and
/// receive kinds, keyed by operand c) or reduction, plus one entry per
/// skeleton for the spans with no such operand (idle waits) or one outside
/// the skeleton. Each entry heads a chain of fragments checked against the
/// whole key, so spans that share an entry (a task's CPE groups, retry
/// attempts) still get their own; in a traced run every chain is short.
class Fragments {
 public:
  struct Fragment {
    FlightKind opened_by;
    std::int32_t b;
    std::int32_t c;
    std::uint32_t next;  ///< next fragment of the entry's chain + 1; 0 ends it
    std::uint32_t head, mid, tail, end;  ///< offsets into the text
  };

  /// Starts rank `r`, whose spans of step -1 resolve against its init
  /// skeleton and the others against its timestep skeleton. Keeps the
  /// storage of the rank before.
  void reset(const RankObservation& r) {
    rank_ = r.rank;
    resolve_.emplace(r.resolver());
    std::size_t at = 0;
    for (const bool init : {false, true}) {
      const TaskGraphInfo& g = init ? r.init_graph() : r.graph();
      Layout& l = layout_[init ? 1 : 0];
      for (std::size_t k = 0; k < kKinds; ++k) {
        const auto opened_by = static_cast<FlightKind>(kFirstKind + k);
        const SpanKind kind = span_kind(opened_by);
        l.base[k] = at;
        l.size[k] = kind == SpanKind::kSend || kind == SpanKind::kRecv ? g.messages.size()
                    : kind == SpanKind::kReduce                       ? g.reductions.size()
                                                                      : g.tasks.size();
        at += l.size[k];
      }
      l.outside = at++;
    }
    chain_.assign(at, 0);
    fragments_.clear();
    text_.clear();
  }

  /// The fragment of `s`, formatted at its first use.
  const Fragment& of(const Span& s) {
    std::uint32_t& first = chain_[entry(s)];
    for (std::uint32_t f = first; f != 0; f = fragments_[f - 1].next) {
      const Fragment& frag = fragments_[f - 1];
      if (frag.opened_by == s.opened_by && frag.b == s.b && frag.c == s.c) return frag;
    }
    fragments_.push_back(format(s, first));
    first = static_cast<std::uint32_t>(fragments_.size());
    return fragments_.back();
  }

  std::string_view text(std::uint32_t from, std::uint32_t to) const {
    return std::string_view(text_).substr(from, to - from);
  }

 private:
  static constexpr int kFirstKind = static_cast<int>(FlightKind::kTaskBegin);
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(static_cast<int>(FlightKind::kBackoffEnd) - kFirstKind + 1);
  struct Layout {
    std::size_t base[kKinds];
    std::size_t size[kKinds];
    std::size_t outside;
  };

  std::size_t entry(const Span& s) const {
    const Layout& l = layout_[s.step < 0 ? 1 : 0];
    const int k = static_cast<int>(s.opened_by) - kFirstKind;
    if (k < 0 || static_cast<std::size_t>(k) >= kKinds) return l.outside;
    const SpanKind kind = s.kind();
    const auto operand = static_cast<std::size_t>(
        static_cast<std::uint32_t>(kind == SpanKind::kSend || kind == SpanKind::kRecv ? s.c : s.b));
    const auto i = static_cast<std::size_t>(k);
    return operand < l.size[i] ? l.base[i] + operand : l.outside;
  }

  /// Formats the fragment of `s`, as the generic JsonWriter calls would
  /// write its members, heading a chain that continues at `next`.
  Fragment format(const Span& s, std::uint32_t next) {
    const EventIds ids = resolve_->ids(s);
    const std::string_view name = resolve_->names()[resolve_->name(s)];
    const std::string_view kind = to_string(s.kind());
    Fragment f{s.opened_by, s.b, s.c, next, 0, 0, 0, 0};
    const auto mark = [this] { return static_cast<std::uint32_t>(text_.size()); };
    f.head = mark();
    text_ += R"({"name":")";
    if (name.empty())
      text_ += kind;
    else
      text_ += JsonWriter::escape(name);
    text_ += R"(","cat":")";
    text_ += kind;
    text_ += R"(","ph":"X","ts":)";
    f.mid = mark();
    text_ += R"(,"pid":)";
    append(text_, rank_);
    text_ += R"(,"tid":)";
    append(text_, tid_of(s.kind(), ids.group));
    text_ += R"(,"args":{"step":)";
    f.tail = mark();
    const auto member = [this](std::string_view key, auto v) {
      text_ += key;
      append(text_, v);
    };
    if (ids.task >= 0) member(R"(,"task":)", ids.task);
    if (ids.patch >= 0) member(R"(,"patch":)", ids.patch);
    if (ids.peer >= 0) member(R"(,"peer":)", ids.peer);
    if (ids.tag >= 0) member(R"(,"tag":)", ids.tag);
    if (ids.group >= 0) member(R"(,"cpe_group":)", ids.group);
    if (ids.bytes > 0) member(R"(,"bytes":)", ids.bytes);
    text_ += "}}";
    f.end = mark();
    return f;
  }

  int rank_ = -1;
  std::optional<SpanResolver> resolve_;
  Layout layout_[2];  ///< [0] timestep, [1] init
  std::vector<std::uint32_t> chain_;  ///< per entry: its first fragment + 1, or 0
  std::vector<Fragment> fragments_;
  std::string text_;
};

/// Bound on what write_span() formats after the head: the constant keys,
/// two times, the step and the rest of the fragment at their longest.
constexpr std::size_t kMaxSpanTail = 128 + 2 * kMaxUsChars + 7 * 20;
static_assert(kMaxSpanTail <= JsonWriter::kBufferBytes);

/// One "ph":"X" event: `f` formatted around the times and the step of `s`.
void write_span(JsonWriter::Raw& out, const Span& s, const Fragments& fragments,
                const Fragments::Fragment& f) {
  // One reservation for the whole object, unless the name is too long to
  // share the buffer with the rest.
  const std::string_view head = fragments.text(f.head, f.mid);
  char* p = nullptr;
  if (head.size() <= JsonWriter::kBufferBytes - kMaxSpanTail) {
    p = put(out.space(head.size() + kMaxSpanTail), head);
  } else {
    out.put(head);
    p = out.space(kMaxSpanTail);
  }
  // Virtual picoseconds exported as microseconds: readable zoom levels in
  // the viewers and no 64-bit-double truncation at our time scales.
  p = format_us(p, s.begin);
  p = format_us(put(p, R"(,"dur":)"), s.duration());
  p = put(p, fragments.text(f.mid, f.tail));
  p = std::to_chars(p, p + 11, s.step).ptr;
  out.commit(put(p, fragments.text(f.tail, f.end)));
}

}  // namespace

char* format_us(char* out, TimePs ps) {
  constexpr TimePs kPsPerUs = 1'000'000;
  if (ps < 100 || ps >= kPsPerUs * kPsPerUs)
    return std::to_chars(out, out + kMaxUsChars, static_cast<double>(ps) * 1e-6,
                         std::chars_format::general, 12)
        .ptr;
  out = std::to_chars(out, out + kMaxUsChars, ps / kPsPerUs).ptr;
  TimePs frac = ps % kPsPerUs;
  if (frac == 0) return out;
  int digits = 6;
  for (; frac % 10 == 0; frac /= 10) --digits;
  *out++ = '.';
  for (int i = digits - 1; i >= 0; --i, frac /= 10)
    out[i] = static_cast<char>('0' + frac % 10);
  return out + digits;
}

void write_chrome_trace(std::ostream& os, const RunObservation& run) {
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  std::vector<int> tids;
  Fragments fragments;
  for (const RankObservation& r : run.ranks) {
    name_metadata(w, "process_name", r.rank, 0, "rank " + std::to_string(r.rank));
    sort_metadata(w, "process_sort_index", r.rank, 0, r.rank);
    tids.clear();
    for (const Span& s : r.spans()) {
      const SpanKind kind = s.kind();
      const int tid = tid_of(kind, lane_of(kind) == Lane::kCpe ? cpe_group(s) : -1);
      if (std::find(tids.begin(), tids.end(), tid) == tids.end()) tids.push_back(tid);
    }
    std::sort(tids.begin(), tids.end());
    for (int tid : tids) {
      name_metadata(w, "thread_name", r.rank, tid, tid_name(tid));
      sort_metadata(w, "thread_sort_index", r.rank, tid, tid);
    }
    fragments.reset(r);
    for (const Span& s : r.spans()) {
      const Fragments::Fragment& f = fragments.of(s);
      w.raw_value([&](JsonWriter::Raw& out) { write_span(out, s, fragments, f); });
    }
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace usw::obs
