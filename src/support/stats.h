#pragma once

// Running statistics and simple sample summaries used by the benchmark
// harness and the scheduler instrumentation.

#include <cstddef>
#include <span>
#include <vector>

namespace usw {

/// Streaming min/max/mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample set (linear interpolation, p in [0,100]).
/// Returns 0 for an empty sample set, so possibly-empty distributions can
/// be summarized without a guard at every call site.
/// Copies and selects; intended for end-of-run summaries, not hot paths.
double percentile(std::vector<double> samples, double p);

/// percentile() of samples already sorted ascending: no copy, no sort, so
/// several percentiles of one set cost a single sort between them.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// percentile() at each of `ps`, which must ascend, into `out`, by
/// selection: std::nth_element places each order statistic the
/// interpolation reads, reordering `samples` no further than that, in
/// O(n) per percentile instead of one O(n log n) sort. The same bits as
/// percentile_sorted() of a sorted copy.
void select_percentiles(std::span<double> samples, std::span<const double> ps,
                        std::span<double> out);

}  // namespace usw
