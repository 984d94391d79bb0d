#include "obs/chrome_trace.h"

#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "obs/json_writer.h"

namespace usw::obs {
namespace {

/// Thread id of a span within its rank's process: MPE first, then one
/// track per CPE group, MPI flight last.
int tid_of(const Span& s) {
  switch (s.lane) {
    case Lane::kMpe: return 0;
    case Lane::kCpe: return 1 + (s.ids.group > 0 ? s.ids.group : 0);
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

}  // namespace

void write_chrome_trace(std::ostream& os, const RunObservation& run) {
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  for (const RankObservation& r : run.ranks) {
    name_metadata(w, "process_name", r.rank, 0, "rank " + std::to_string(r.rank));
    sort_metadata(w, "process_sort_index", r.rank, 0, r.rank);
    std::set<int> tids;
    for (const Span& s : r.spans) tids.insert(tid_of(s));
    for (int tid : tids) {
      name_metadata(w, "thread_name", r.rank, tid, tid_name(tid));
      sort_metadata(w, "thread_sort_index", r.rank, tid, tid);
    }
    for (const Span& s : r.spans) {
      w.begin_object();
      w.kv("name", s.name.empty() ? std::string_view(to_string(s.kind))
                                   : std::string_view(s.name));
      w.kv("cat", to_string(s.kind));
      w.kv("ph", "X");
      // Virtual picoseconds exported as microseconds: readable zoom levels
      // in the viewers and no 64-bit-double truncation at our time scales.
      w.kv("ts", static_cast<double>(s.begin) * 1e-6);
      w.kv("dur", static_cast<double>(s.duration()) * 1e-6);
      w.kv("pid", r.rank);
      w.kv("tid", tid_of(s));
      w.key("args").begin_object();
      w.kv("step", s.ids.step);
      if (s.ids.task >= 0) w.kv("task", s.ids.task);
      if (s.ids.patch >= 0) w.kv("patch", s.ids.patch);
      if (s.ids.peer >= 0) w.kv("peer", s.ids.peer);
      if (s.ids.tag >= 0) w.kv("tag", s.ids.tag);
      if (s.ids.group >= 0) w.kv("cpe_group", s.ids.group);
      if (s.ids.bytes > 0) w.kv("bytes", s.ids.bytes);
      w.end_object();
      w.end_object();
    }
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace usw::obs
