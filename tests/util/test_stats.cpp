#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace secbus::util {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleVarianceZero) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1);
  s.add(2);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStat, NegativeValues) {
  RunningStat s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, MergeMatchesSequentialStreaming) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStat whole;
  for (double x : xs) whole.add(x);

  RunningStat left, right;
  for (int i = 0; i < 3; ++i) left.add(xs[i]);
  for (int i = 3; i < 8; ++i) right.add(xs[i]);
  left.merge(right);

  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat filled;
  filled.add(1.0);
  filled.add(3.0);

  RunningStat target;
  target.merge(filled);  // empty <- filled adopts everything
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);

  const RunningStat empty;
  target.merge(empty);  // filled <- empty is a no-op
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
  EXPECT_DOUBLE_EQ(target.max(), 3.0);
}

TEST(Counter, IncAndReset) {
  Counter c("grants");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(c.name(), "grants");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Ratios, PercentOverhead) {
  EXPECT_NEAR(percent_overhead(113.43, 100.0), 13.43, 1e-9);
  EXPECT_DOUBLE_EQ(percent_overhead(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(percent_overhead(50.0, 100.0), -50.0);
  EXPECT_DOUBLE_EQ(percent_overhead(5.0, 0.0), 0.0);  // guarded
}

TEST(Ratios, SafeRatio) {
  EXPECT_DOUBLE_EQ(safe_ratio(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(safe_ratio(1.0, 0.0), 0.0);
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(LatencyHistogram, ExactNearestRankPercentiles) {
  LatencyHistogram h;
  for (std::uint64_t c = 1; c <= 100; ++c) h.add(c);
  // Nearest-rank over 100 samples 1..100: p_q is exactly q.
  EXPECT_EQ(h.p50(), 50u);
  EXPECT_EQ(h.p95(), 95u);
  EXPECT_EQ(h.p99(), 99u);
  EXPECT_EQ(h.percentile(100), 100u);
  EXPECT_EQ(h.percentile(0), 1u);  // rank clamps to the first sample
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(LatencyHistogram, SkewedDistributionIsExact) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.add(7);
  h.add(4000);  // single tail sample
  EXPECT_EQ(h.p50(), 7u);
  EXPECT_EQ(h.p95(), 7u);
  EXPECT_EQ(h.p99(), 7u);  // rank 99 of 100 still lands on the mode
  EXPECT_EQ(h.percentile(100), 4000u);
}

TEST(LatencyHistogram, MergeMatchesSingleStream) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  for (std::uint64_t c = 1; c <= 60; ++c) {
    a.add(c);
    combined.add(c);
  }
  for (std::uint64_t c = 500; c <= 540; ++c) {
    b.add(c);
    combined.add(c);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  for (double q : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(a.percentile(q), combined.percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeIntoEmptyAndFromEmpty) {
  LatencyHistogram a;
  LatencyHistogram empty;
  a.add(10);
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 1u);
  LatencyHistogram target;
  target.merge(a);
  EXPECT_EQ(target.count(), 1u);
  EXPECT_EQ(target.p50(), 10u);
}

TEST(LatencyHistogram, OverflowSaturatesButTracksExactMax) {
  LatencyHistogram h;
  h.add(3);
  h.add(LatencyHistogram::kTrackedMax + 123);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), LatencyHistogram::kTrackedMax + 123);
  EXPECT_EQ(h.p50(), 3u);
  // The rank falling into the overflow bucket reports the tracked max.
  EXPECT_EQ(h.percentile(100), LatencyHistogram::kTrackedMax + 123);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.add(5);
  h.add(LatencyHistogram::kTrackedMax + 1);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

}  // namespace
}  // namespace secbus::util
