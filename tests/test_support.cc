// Unit tests for the support library: statistics, percentiles, tables,
// option parsing, units, and the deterministic RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "support/error.h"
#include "support/options.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/units.h"

namespace usw {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  SplitMix64 rng(7);
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_in(-5.0, 9.0);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-9);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(RunningStats, MergeEqualsSequential) {
  SplitMix64 rng(11);
  RunningStats whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_in(0.0, 1.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, KnownValues) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
}

TEST(Percentile, EmptyIsZero) {
  // End-of-run summaries query distributions that may never have been fed;
  // an empty sample set reads as 0 instead of dying.
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
}

TEST(Percentile, TwoElementInterpolation) {
  std::vector<double> xs = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 19.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 20.0);
}

TEST(Percentile, SelectionMatchesSortingBitForBit) {
  // select_percentiles() against percentile_sorted() of a sorted copy, on
  // seeded samples of 1 to 1000 values: even trials draw from 7 values
  // (heavy duplicates), odd ones from a wide range; both signs.
  const double ps[] = {0.0, 50.0, 90.0, 99.0, 99.0, 100.0};
  std::mt19937_64 rng(2018);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 1000);
    const std::int64_t values = trial % 2 == 0 ? 7 : 2'000'001;
    std::vector<double> samples(n);
    for (double& x : samples)
      x = 0.37 * static_cast<double>(static_cast<std::int64_t>(rng() % values) - values / 2);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    double got[std::size(ps)];
    select_percentiles(samples, ps, got);
    for (std::size_t k = 0; k < std::size(ps); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(percentile_sorted(sorted, ps[k])))
          << "n " << n << ", p" << ps[k] << ": " << got[k] << " against "
          << percentile_sorted(sorted, ps[k]);
  }
}

TEST(RunningStats, MergeIntoEmpty) {
  RunningStats a, b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(RunningStats, MergeDisjointRanges) {
  // Min/max must come from the right side; variance must match the pooled
  // computation, not the sum of the parts.
  RunningStats lo, hi, all;
  for (double v : {1.0, 2.0}) { lo.add(v); all.add(v); }
  for (double v : {100.0, 101.0, 102.0}) { hi.add(v); all.add(v); }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), all.count());
  EXPECT_DOUBLE_EQ(lo.min(), 1.0);
  EXPECT_DOUBLE_EQ(lo.max(), 102.0);
  EXPECT_DOUBLE_EQ(lo.mean(), all.mean());
  EXPECT_NEAR(lo.variance(), all.variance(), 1e-9);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t("demo");
  t.set_header({"a", "long-column"});
  t.add_row({"x", "1"});
  t.add_row({"yy", "2"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long-column"), std::string::npos);
}

TEST(TextTable, Formatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.317), "31.7%");
}

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog", "--a=1", "--b=2", "--flag", "pos1"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("a", 0), 1);
  EXPECT_EQ(o.get_int("b", 0), 2);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.unread(), std::vector<std::string>{"pos1"});  // never read
}

TEST(Options, Defaults) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_EQ(o.get("missing", "d"), "d");
  EXPECT_EQ(o.get_int("missing", 5), 5);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(o.has("missing"));
}

TEST(Options, BadValuesThrow) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe"};
  Options o(3, argv);
  EXPECT_THROW(o.get_int("n", 0), ConfigError);
  EXPECT_THROW(o.get_bool("b", false), ConfigError);
}

TEST(Options, RejectsTrailingCharacters) {
  const char* argv[] = {"prog", "--ranks=2junk", "--hang=600e6", "--x=1.5s",
                        "--ok=600000000", "--d=2.5e3"};
  Options o(6, argv);
  EXPECT_THROW(o.get_int("ranks", 0), ConfigError);
  EXPECT_THROW(o.get_int("hang", 0), ConfigError);
  EXPECT_THROW(o.get_double("x", 0.0), ConfigError);
  EXPECT_EQ(o.get_int("ok", 0), 600000000);
  EXPECT_DOUBLE_EQ(o.get_double("d", 0.0), 2500.0);
}

TEST(Options, UnreadListsKeysNobodyAskedAbout) {
  const char* argv[] = {"prog", "--used=1", "--typo=2", "--probed", "--ghost", "pos"};
  Options o(6, argv);
  EXPECT_EQ(o.unread(),
            (std::vector<std::string>{"--ghost", "--probed", "--typo", "--used", "pos"}));
  EXPECT_EQ(o.get_int("used", 0), 1);
  EXPECT_TRUE(o.has("probed"));
  EXPECT_EQ(o.get("absent", "d"), "d");  // asking about a missing key is fine
  EXPECT_EQ(o.unread(), (std::vector<std::string>{"--ghost", "--typo", "pos"}));
}

TEST(Units, Conversions) {
  EXPECT_EQ(seconds_to_ps(1.0), kSecond);
  EXPECT_EQ(seconds_to_ps(1e-6), kMicrosecond);
  EXPECT_DOUBLE_EQ(ps_to_seconds(kMillisecond), 1e-3);
  EXPECT_EQ(seconds_to_ps(0.0), 0);
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(500), "500 ps");
  EXPECT_EQ(format_duration(1500), "1.500 ns");
  EXPECT_EQ(format_duration(2 * kMillisecond), "2.000 ms");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(64_KiB), "64.0 KiB");
  EXPECT_EQ(format_bytes(3_GiB), "3.0 GiB");
}

TEST(Rng, DeterministicAndDistinct) {
  SplitMix64 a(1), b(1), c(2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, DoubleInRange) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Error, HierarchyAndMessages) {
  try {
    throw ConfigError("bad knob");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad knob"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("config"), std::string::npos);
  }
  EXPECT_THROW(throw StateError("x"), Error);
  EXPECT_THROW(throw ResourceError("x"), Error);
}

}  // namespace
}  // namespace usw
