#pragma once

// Helpers shared by the test executables: whole-file and whole-tree reads
// for byte-for-byte output comparisons, the first difference between two
// outputs or two span lists for their failure messages, a whole log paired
// into spans, the schedule-point total, string <-> payload conversions for
// the comm tests, and an offload with MPE-named busy times for the CPE
// cluster tests.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "athread/athread.h"
#include "grid/level.h"
#include "obs/span.h"
#include "schedpt/schedule.h"

namespace usw::test {

/// The bytes of the file at `path` ("" if it cannot be read).
inline std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// Every regular file under `dir`, keyed by its path relative to `dir`.
inline std::map<std::string, std::string> slurp_tree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file())
      files.emplace(fs::relative(entry.path(), dir).string(),
                    slurp(entry.path().string()));
  return files;
}

/// Where `got` first differs from `want`: the byte offset, the two sizes,
/// and about 60 bytes of each side around that offset, with newlines and
/// other control bytes shown as escapes. For golden-file failure messages.
inline std::string first_difference(std::string_view got, std::string_view want) {
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  const std::size_t from = at > 30 ? at - 30 : 0;
  const auto context = [from](std::string_view s) {
    std::string out;
    for (const char c : s.substr(std::min(from, s.size()), 60)) {
      if (c == '\n') {
        out += "\\n";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += "\\x" + std::string(1, "0123456789abcdef"[(c >> 4) & 0xf]) +
               "0123456789abcdef"[c & 0xf];
      } else {
        out += c;
      }
    }
    return out;
  };
  return "first difference at byte " + std::to_string(at) + " (got " +
         std::to_string(got.size()) + " bytes, want " + std::to_string(want.size()) +
         " bytes)\n  got:  ..." + context(got) + "...\n  want: ..." + context(want) +
         "...";
}

/// One unit cost per patch of `level`, for a Partition that weighs
/// every patch alike.
inline std::vector<double> equal_costs(const grid::Level& level) {
  return std::vector<double>(static_cast<std::size_t>(level.num_patches()), 1.0);
}

/// The spans of a whole log: a SpanBuilder given `events` as one chunk.
inline std::vector<obs::Span> build_spans(std::span<const obs::FlightEvent> events) {
  obs::SpanBuilder builder;
  builder.add(events);
  return builder.finish();
}

/// Schedule-point decisions of every kind.
inline std::uint64_t total_points(const schedpt::PointCounters& c) {
  std::uint64_t t = 0;
  for (const std::uint64_t n : c.by_kind) t += n;
  return t;
}

/// "" when `got` holds the spans of `want`, field by field and in order;
/// otherwise where the two first differ.
inline std::string span_difference(std::span<const obs::Span> got,
                                   std::span<const obs::Span> want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " spans, want " + std::to_string(want.size());
  const auto fields = [](const obs::Span& s) {
    return std::tie(s.begin, s.end, s.step, s.b, s.c, s.opened_by, s.rolled_back);
  };
  for (std::size_t i = 0; i < got.size(); ++i)
    if (fields(got[i]) != fields(want[i])) return "span " + std::to_string(i) + " differs";
  return "";
}

inline std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

inline std::string str_of(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Spawns `job` on group 0 of `cluster` with every CPE of the group
/// working, CPE i busy for busy_of(i).
inline void spawn_busy(athread::CpeCluster& cluster,
                       const std::function<TimePs(int)>& busy_of,
                       const athread::CpeJob& job = {}) {
  std::vector<int> cpes;
  std::vector<TimePs> busy;
  for (int id = 0; id < cluster.group_size(); ++id) {
    cpes.push_back(id);
    busy.push_back(busy_of(id));
  }
  cluster.set_work(cpes, busy);
  cluster.spawn(job);
}

}  // namespace usw::test
