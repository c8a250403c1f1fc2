// Differential test: util::LatencyHistogram's blocked sparse table against a
// dense reference with one counter per tracked cycle, the straightforward
// reading of the class contract.
//
// Seeded streams (tight around one latency, spread over the whole tracked
// range, and with overflow samples) go into both. They must agree on every
// observable: count, sum, min, max, overflow, mean, every percentile, the
// ascending bucket walk, merges in random trees, restore round trips, and
// the bytes result_io writes for the histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/result_io.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace secbus::util {
namespace {

using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
constexpr std::uint64_t kTracked = LatencyHistogram::kTrackedMax;

// One counter per cycle below kTrackedMax, the way the histogram used to
// store them.
struct DenseHist {
  std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(kTracked, 0);
  std::uint64_t count = 0;
  std::uint64_t overflow = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = UINT64_MAX;
  std::uint64_t max = 0;

  void add(std::uint64_t cycles) {
    ++count;
    sum += cycles;
    min = std::min(min, cycles);
    max = std::max(max, cycles);
    if (cycles >= kTracked) {
      ++overflow;
    } else {
      ++counts[cycles];
    }
  }

  void merge(const DenseHist& other) {
    for (std::uint64_t c = 0; c < kTracked; ++c) counts[c] += other.counts[c];
    count += other.count;
    overflow += other.overflow;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }

  // Nearest rank: the first cycle whose running total reaches the rank, by
  // binary search over the prefix sums of every cycle (`prefix` from
  // prefix_sums()).
  std::uint64_t percentile(const std::vector<std::uint64_t>& prefix,
                           double q) const {
    if (count == 0) return 0;
    q = std::clamp(q, 0.0, 100.0);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q / 100.0 * static_cast<double>(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), rank);
    return it == prefix.end() ? max
                              : static_cast<std::uint64_t>(it - prefix.begin());
  }

  std::vector<std::uint64_t> prefix_sums() const {
    std::vector<std::uint64_t> prefix(kTracked);
    std::uint64_t running = 0;
    for (std::uint64_t c = 0; c < kTracked; ++c) prefix[c] = running += counts[c];
    return prefix;
  }

  Buckets buckets() const {
    Buckets out;
    for (std::uint64_t c = 0; c < kTracked; ++c) {
      if (counts[c] != 0) out.emplace_back(c, counts[c]);
    }
    return out;
  }

  // The histogram member of a JobResult document, written from the dense
  // table.
  std::string json() const {
    std::string out;
    JsonWriter w(out);
    w.begin_object();
    w.member("count", count).member("overflow", overflow).member("sum", sum);
    w.key("buckets").begin_array();
    for (const auto& [cycle, n] : buckets()) {
      w.begin_array().value(cycle).value(n).end_array();
    }
    w.end_array();
    if (count > 0) w.member("min", min).member("max", max);
    w.end_object();
    return out;
  }
};

Buckets walk(const LatencyHistogram& h) {
  Buckets out;
  h.for_each_bucket(
      [&](std::uint64_t cycle, std::uint64_t n) { out.emplace_back(cycle, n); });
  return out;
}

void expect_same(const LatencyHistogram& h, const DenseHist& ref) {
  EXPECT_EQ(h.count(), ref.count);
  EXPECT_EQ(h.overflow(), ref.overflow);
  EXPECT_EQ(h.sum(), ref.sum);
  EXPECT_EQ(h.min(), ref.count > 0 ? ref.min : 0);
  EXPECT_EQ(h.max(), ref.count > 0 ? ref.max : 0);
  EXPECT_EQ(h.mean(), ref.count > 0 ? static_cast<double>(ref.sum) /
                                          static_cast<double>(ref.count)
                                    : 0.0);
  const std::vector<std::uint64_t> prefix = ref.prefix_sums();
  for (int q = 0; q <= 100; ++q) {
    EXPECT_EQ(h.percentile(q), ref.percentile(prefix, q)) << "p" << q;
  }
  for (const double q : {-5.0, 0.1, 33.3, 99.9, 99.99, 250.0}) {
    EXPECT_EQ(h.percentile(q), ref.percentile(prefix, q)) << "p" << q;
  }
  EXPECT_EQ(walk(h), ref.buckets());
}

enum class Shape { kTight, kSpread, kOverflow };

// `n` samples of one shape: tight (a few cycles around one latency),
// spread (anywhere below kTrackedMax) or overflow (one in five at or
// above it, up to far past it).
std::uint64_t sample(Xoshiro256& rng, Shape shape, std::uint64_t centre) {
  switch (shape) {
    case Shape::kTight: return centre + rng.below(8);
    case Shape::kSpread: return rng.below(kTracked);
    case Shape::kOverflow:
      return rng.below(5) == 0 ? kTracked + rng.below(1'000'000)
                               : rng.below(kTracked);
  }
  return 0;
}

struct Pair {
  LatencyHistogram hist;
  DenseHist ref;
};

Pair stream(Xoshiro256& rng, Shape shape, std::size_t n) {
  Pair p;
  const std::uint64_t centre = rng.below(kTracked - 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = sample(rng, shape, centre);
    p.hist.add(s);
    p.ref.add(s);
  }
  return p;
}

constexpr Shape kShapes[] = {Shape::kTight, Shape::kSpread, Shape::kOverflow};

TEST(LatencyHistDiff, SeededStreamsMatchTheDenseReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    for (const Shape shape : kShapes) {
      for (const std::size_t n : {0u, 1u, 30u, 1500u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " shape "
                                          << static_cast<int>(shape) << " n "
                                          << n);
        const Pair p = stream(rng, shape, n);
        expect_same(p.hist, p.ref);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(LatencyHistDiff, EdgeCyclesMatchTheDenseReference) {
  Pair p;
  for (const std::uint64_t s :
       {std::uint64_t{0}, std::uint64_t{15}, std::uint64_t{16}, kTracked - 1,
        kTracked, kTracked + 1, std::uint64_t{1} << 40}) {
    p.hist.add(s);
    p.ref.add(s);
    expect_same(p.hist, p.ref);
  }
  p.hist.reset();
  expect_same(p.hist, DenseHist{});
}

// Random merge trees: leaves of every shape merged pairwise in a random
// order (self-merges included) until one histogram is left.
TEST(LatencyHistDiff, RandomMergeTreesMatchTheDenseReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed * 7919);
    std::vector<Pair> pool;
    for (std::size_t i = 0; i < 12; ++i) {
      pool.push_back(stream(rng, kShapes[rng.below(3)], rng.below(200)));
    }
    pool.emplace_back();  // an empty one
    while (pool.size() > 1) {
      const std::size_t into = static_cast<std::size_t>(rng.below(pool.size()));
      if (rng.below(10) == 0) {
        pool[into].hist.merge(pool[into].hist);
        const DenseHist copy = pool[into].ref;
        pool[into].ref.merge(copy);
        expect_same(pool[into].hist, pool[into].ref);
        continue;
      }
      std::size_t from = static_cast<std::size_t>(rng.below(pool.size() - 1));
      if (from >= into) ++from;
      pool[into].hist.merge(pool[from].hist);
      pool[into].ref.merge(pool[from].ref);
      expect_same(pool[into].hist, pool[into].ref);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(from));
      if (HasFailure()) return;
    }
  }
}

TEST(LatencyHistDiff, RestoreRoundTripsMatchTheDenseReference) {
  Xoshiro256 rng(99);
  for (const Shape shape : kShapes) {
    for (const std::size_t n : {0u, 7u, 900u}) {
      const Pair p = stream(rng, shape, n);
      LatencyHistogram restored;
      restored.add(5);  // restore() starts from scratch
      restored.restore(walk(p.hist), p.hist.overflow(), p.hist.count(),
                       p.hist.sum(), p.hist.min(), p.hist.max());
      expect_same(restored, p.ref);
      // A restored table keeps accepting samples like the original.
      LatencyHistogram grown = restored;
      DenseHist grown_ref = p.ref;
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t s = sample(rng, shape, 1000);
        grown.add(s);
        grown_ref.add(s);
      }
      expect_same(grown, grown_ref);
    }
  }
}

// The bytes result_io writes for a histogram are the dense table's nonzero
// buckets in ascending order, and they read back to the same histogram.
TEST(LatencyHistDiff, ResultIoBytesMatchTheDenseReference) {
  Xoshiro256 rng(4242);
  for (const Shape shape : kShapes) {
    for (const std::size_t n : {0u, 30u, 1500u}) {
      SCOPED_TRACE(::testing::Message() << "shape " << static_cast<int>(shape)
                                        << " n " << n);
      const Pair p = stream(rng, shape, n);
      scenario::JobResult job;
      job.latency_hist = p.hist;
      std::string doc;
      JsonWriter w(doc);
      scenario::write_job_result(w, job);
      EXPECT_NE(doc.find("\"latency_hist\":" + p.ref.json() + ","),
                std::string::npos)
          << doc;

      JsonReader r(doc);
      scenario::JobResult back;
      ASSERT_TRUE(scenario::read_job_result(r, back) && r.finish())
          << r.error();
      expect_same(back.latency_hist, p.ref);
      std::string again;
      JsonWriter w2(again);
      scenario::write_job_result(w2, back);
      EXPECT_EQ(again, doc);
    }
  }
}

}  // namespace
}  // namespace secbus::util
