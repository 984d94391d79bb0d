#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cstring>
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

/// An integer member: `key` is the comma, the quoted name and the colon.
template <typename Int>
char* put_member(char* p, std::string_view key, Int v) {
  p = put(p, key);
  return std::to_chars(p, p + 20, v).ptr;
}

/// Bound on what write_span() formats after the name: its keys, the kind,
/// two times and seven integers at their longest.
constexpr std::size_t kMaxSpanTail = 128 + 2 * kMaxUsChars + 7 * 20;
static_assert(kMaxSpanTail <= JsonWriter::kBufferBytes);

/// One "ph":"X" event, formatted as the generic JsonWriter calls would
/// write it: `ids` are the span's resolved ids and `name` its name, already
/// escaped.
void write_span(JsonWriter::Raw& out, const Span& s, const EventIds& ids,
                std::string_view name, int pid) {
  const std::string_view kind = to_string(s.kind());
  out.put(R"({"name":")");
  out.put(name.empty() ? kind : name);
  char* p = out.space(kMaxSpanTail);
  p = put(p, R"(","cat":")");
  p = put(p, kind);
  // Virtual picoseconds exported as microseconds: readable zoom levels in
  // the viewers and no 64-bit-double truncation at our time scales.
  p = format_us(put(p, R"(","ph":"X","ts":)"), s.begin);
  p = format_us(put(p, R"(,"dur":)"), s.duration());
  p = put_member(p, R"(,"pid":)", pid);
  p = put_member(p, R"(,"tid":)", tid_of(s.kind(), ids.group));
  p = put_member(p, R"(,"args":{"step":)", ids.step);
  if (ids.task >= 0) p = put_member(p, R"(,"task":)", ids.task);
  if (ids.patch >= 0) p = put_member(p, R"(,"patch":)", ids.patch);
  if (ids.peer >= 0) p = put_member(p, R"(,"peer":)", ids.peer);
  if (ids.tag >= 0) p = put_member(p, R"(,"tag":)", ids.tag);
  if (ids.group >= 0) p = put_member(p, R"(,"cpe_group":)", ids.group);
  if (ids.bytes > 0) p = put_member(p, R"(,"bytes":)", ids.bytes);
  out.commit(put(p, "}}"));
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
  std::vector<std::string> escaped;  ///< by name index
  for (const RankObservation& r : run.ranks) {
    name_metadata(w, "process_name", r.rank, 0, "rank " + std::to_string(r.rank));
    sort_metadata(w, "process_sort_index", r.rank, 0, r.rank);
    SpanResolver resolve = r.resolver();
    tids.clear();
    for (const Span& s : r.spans()) {
      const SpanKind kind = s.kind();
      const int tid = tid_of(kind, lane_of(kind) == Lane::kCpe ? resolve.ids(s).group : -1);
      if (std::find(tids.begin(), tids.end(), tid) == tids.end()) tids.push_back(tid);
    }
    std::sort(tids.begin(), tids.end());
    for (int tid : tids) {
      name_metadata(w, "thread_name", r.rank, tid, tid_name(tid));
      sort_metadata(w, "thread_sort_index", r.rank, tid, tid);
    }
    // Each name is escaped once, when the resolver first interns it.
    escaped.clear();
    for (const Span& s : r.spans()) {
      const std::uint32_t name = resolve.name(s);
      while (escaped.size() < resolve.names().size())
        escaped.push_back(JsonWriter::escape(resolve.names()[escaped.size()]));
      w.raw_value([&](JsonWriter::Raw& out) {
        write_span(out, s, resolve.ids(s), escaped[name], r.rank);
      });
    }
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace usw::obs
