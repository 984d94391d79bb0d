#pragma once

// Named metrics bag filled while the simulation runs.
//
// Split out from obs/metrics.h so RankObservation can hold a registry
// without a header cycle (metrics.h builds reports *from* observations).

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/stats.h"

namespace usw::obs {

/// A named sample set: streaming stats plus the raw samples, retained so
/// end-of-run summaries can answer percentile queries.
struct Distribution {
  RunningStats stats;
  std::vector<double> samples;

  void add(double v) {
    stats.add(v);
    samples.push_back(v);
  }
  /// One percentile: copies and sorts the samples. For several, sort once
  /// with sorted_samples() and query percentile_sorted().
  double pct(double p) const { return percentile(samples, p); }
  std::vector<double> sorted_samples() const {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }
};

/// Registry of named metrics. Cheap to feed (map lookup + push_back) and
/// mergeable across ranks; absent names read as zero/empty. Lookups take a
/// string_view and compare in place (std::less<>), so feeding an existing
/// name never builds a temporary std::string.
class MetricsRegistry {
 public:
  using Distributions = std::map<std::string, Distribution, std::less<>>;
  using Counters = std::map<std::string, double, std::less<>>;

  /// Adds one sample to distribution `name`.
  void sample(std::string_view name, double v) { slot(dists_, name).add(v); }

  /// Makes room in distribution `name` for `n` samples in all.
  void reserve(std::string_view name, std::size_t n) {
    slot(dists_, name).samples.reserve(n);
  }

  /// Adds `v` to counter `name`.
  void count(std::string_view name, double v = 1.0) { slot(counters_, name) += v; }

  /// Distribution lookup; nullptr when nothing was sampled under `name`.
  const Distribution* distribution(std::string_view name) const;
  /// Counter value; 0 when never counted.
  double counter(std::string_view name) const;

  const Distributions& distributions() const { return dists_; }
  const Counters& counters() const { return counters_; }
  bool empty() const { return dists_.empty() && counters_.empty(); }

  /// Folds `other` in: counters add, distributions concatenate.
  void merge(const MetricsRegistry& other);
  /// merge() of every part in order, each distribution's samples allocated
  /// once at their final size instead of grown part by part.
  void merge(const std::vector<const MetricsRegistry*>& parts);

 private:
  /// The entry for `name`, default-constructed on first use.
  template <typename Map>
  static typename Map::mapped_type& slot(Map& map, std::string_view name) {
    auto it = map.find(name);
    if (it == map.end()) it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
    return it->second;
  }

  Distributions dists_;
  Counters counters_;
};

}  // namespace usw::obs
