#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace usw {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

/// Where percentile p of n >= 2 ascending samples lies: between the
/// samples at lo and hi (lo + 1, or lo at the top), `frac` of the way.
struct PercentileRank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

PercentileRank percentile_rank(std::size_t n, double p) {
  USW_ASSERT(p >= 0.0 && p <= 100.0);
  const double pos = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

double interpolate(double lo, double hi, double frac) { return lo + frac * (hi - lo); }

}  // namespace

double percentile(std::vector<double> samples, double p) {
  double out = 0.0;
  select_percentiles(samples, {&p, 1}, {&out, 1});
  return out;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) {
    USW_ASSERT(p >= 0.0 && p <= 100.0);
    return sorted.front();
  }
  const PercentileRank r = percentile_rank(sorted.size(), p);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

void select_percentiles(std::span<double> samples, std::span<const double> ps,
                        std::span<double> out) {
  USW_ASSERT(out.size() == ps.size());
  const std::size_t n = samples.size();
  // samples[from, n) hold the order statistics from `from` up, unordered.
  std::size_t from = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (n < 2) {
      USW_ASSERT(n == 0 || (ps[i] >= 0.0 && ps[i] <= 100.0));
      out[i] = n == 0 ? 0.0 : samples[0];
      continue;
    }
    const PercentileRank r = percentile_rank(n, ps[i]);
    USW_ASSERT(r.lo >= from);
    const auto at = samples.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(samples.begin() + static_cast<std::ptrdiff_t>(from), at, samples.end());
    // Everything after `at` is at least *at, so the next order statistic is
    // their least.
    const double hi = r.hi == r.lo ? *at : *std::min_element(at + 1, samples.end());
    out[i] = interpolate(*at, hi, r.frac);
    from = r.lo;
  }
}

}  // namespace usw
