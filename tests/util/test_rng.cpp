#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

namespace secbus::util {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values for SplitMix64 seeded with 0 (widely published).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64_next(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06C45D188009454FULL);
}

TEST(Xoshiro256, SameSeedSameSequence) {
  Xoshiro256 a(123456789);
  Xoshiro256 b(123456789);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at step " << i;
  }
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Xoshiro256, ZeroSeedIsValid) {
  Xoshiro256 rng(0);
  bool any_nonzero = false;
  for (int i = 0; i < 16; ++i) {
    if (rng.next() != 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Xoshiro256, BelowStaysInBounds) {
  Xoshiro256 rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1ULL << 33}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Xoshiro256, BelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, RangeInclusiveBounds) {
  Xoshiro256 rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo = saw_lo || v == 10;
    saw_hi = saw_hi || v == 13;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, Uniform01InRange) {
  Xoshiro256 rng(3);
  double sum = 0;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  // Mean of U[0,1) should be near 0.5.
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(Xoshiro256, ChanceExtremes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Xoshiro256, ChanceApproximatesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.02);
}

TEST(Xoshiro256, FillCoversAllBytesDeterministically) {
  Xoshiro256 a(77), b(77);
  std::vector<std::uint8_t> buf_a(37, 0), buf_b(37, 0);
  a.fill(buf_a);
  b.fill(buf_b);
  EXPECT_EQ(buf_a, buf_b);
  // 37 random bytes should not be all zero.
  bool nonzero = false;
  for (auto byte : buf_a) nonzero = nonzero || byte != 0;
  EXPECT_TRUE(nonzero);
}

std::size_t pick(Xoshiro256& rng, std::span<const double> weights) {
  return rng.weighted_pick(weights, Xoshiro256::weight_total(weights));
}

TEST(Xoshiro256, WeightedPickRespectsZeroWeights) {
  Xoshiro256 rng(13);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(pick(rng, std::span<const double>(weights, 3)), 1u);
  }
}

TEST(Xoshiro256, WeightedPickApproximatesRatios) {
  Xoshiro256 rng(17);
  const double weights[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    ++counts[pick(rng, std::span<const double>(weights, 2))];
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / kTrials, 0.75, 0.02);
}

TEST(Xoshiro256, WeightedPickAllZeroFallsBackToUniform) {
  Xoshiro256 rng(19);
  const double weights[] = {0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(pick(rng, std::span<const double>(weights, 3)));
  }
  EXPECT_EQ(seen.size(), 3u);
}

// Reference draw that re-sums the weights on every call.
std::size_t resumming_pick(Xoshiro256& rng, std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return rng.below(weights.size());
  double target = rng.uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

// A total summed once (as ip::Processor does for its fixed weights) draws
// exactly what re-summing draws: same index, same generator state after.
TEST(Xoshiro256, WeightedPickWithCachedTotalMatchesResumming) {
  Xoshiro256 gen(2024);
  Xoshiro256 cached(77);
  Xoshiro256 resummed(77);
  std::size_t draws = 0;
  while (draws < 100'000) {
    std::vector<double> weights(1 + gen.below(8));
    for (double& w : weights) {
      switch (gen.below(6)) {
        case 0: w = 0.0; break;
        case 1: w = -gen.uniform01(); break;
        case 2: w = gen.uniform01() * 1e-9; break;
        case 3: w = gen.uniform01() * 1e9; break;
        default: w = gen.uniform01(); break;
      }
    }
    const double total = Xoshiro256::weight_total(weights);
    for (int i = 0; i < 100; ++i, ++draws) {
      ASSERT_EQ(cached.weighted_pick(weights, total),
                resumming_pick(resummed, weights))
          << "draw " << draws;
    }
  }
  EXPECT_EQ(cached.next(), resummed.next());
}

TEST(Xoshiro256, SubstreamsAreIndependentAndStable) {
  Xoshiro256 master(99);
  Xoshiro256 s0 = master.substream(0);
  Xoshiro256 s1 = master.substream(1);
  Xoshiro256 s0_again = master.substream(0);
  EXPECT_EQ(s0.next(), s0_again.next());
  EXPECT_NE(s0.next(), s1.next());
}

// Property sweep: Lemire rejection stays unbiased-ish across bounds.
class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, RoughlyUniform) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(bound * 31 + 7);
  std::vector<int> counts(static_cast<std::size_t>(bound), 0);
  const int per_bucket = 400;
  const int trials = static_cast<int>(bound) * per_bucket;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<std::size_t>(rng.below(bound))];
  }
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_GT(counts[static_cast<std::size_t>(v)], per_bucket / 2)
        << "value " << v << " undersampled";
    EXPECT_LT(counts[static_cast<std::size_t>(v)], per_bucket * 2)
        << "value " << v << " oversampled";
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 16, 31));

}  // namespace
}  // namespace secbus::util
