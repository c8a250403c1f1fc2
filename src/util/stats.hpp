// Statistics primitives used across the simulator: counters, running moments,
// and exact latency histograms. All integer-cycle oriented and allocation-free
// on the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace secbus::util {

// Monotonic event counter with a name (for reports).
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  void reset() noexcept { value_ = 0; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::uint64_t value_ = 0;
};

// Streaming mean/variance/min/max via Welford's algorithm.
class RunningStat {
 public:
  // Exact internal state, exposed so results can cross a process boundary
  // (shard result files / checkpoints) and merge bit-identically afterwards.
  // `restore(snapshot())` reproduces the stat down to the last mantissa bit;
  // min/max are meaningless (and not finite) when count == 0.
  struct Snapshot {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void add(double x) noexcept;
  void reset() noexcept;

  // Folds `other` into this stat as if every one of its samples had been
  // add()ed here (Chan et al. parallel-variance combine). Lets the batch
  // runner merge per-CPU / per-job moments without re-streaming samples.
  void merge(const RunningStat& other) noexcept;

  [[nodiscard]] Snapshot snapshot() const noexcept;
  void restore(const Snapshot& snap) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Integer-cycle latency histogram: 1-cycle buckets over [0, kTrackedMax)
// plus a saturating overflow bucket. Percentile extraction is *exact*
// (nearest-rank over the recorded integer samples) for every value below
// kTrackedMax; samples at or above
// it saturate and report the exact tracked maximum instead. Mergeable, so
// per-IP histograms fold into per-job and per-batch ones without losing
// the tail. The buckets live in a blocked sparse table: kBlockCycles-cycle
// blocks are allocated on first touch and a slot index ordered by block
// maps a block number to its storage, so add() is O(1) without a search,
// and merge(), percentile() and for_each_bucket() walk occupied blocks
// only. A CPU that records 30 waits of ~3k cycles holds a few blocks, not
// a table spanning every cycle up to its slowest wait.
class LatencyHistogram {
 public:
  // Latencies up to 16k cycles are tracked exactly; anything slower (deeply
  // congested fabrics, pathological floods) saturates into overflow.
  static constexpr std::uint64_t kTrackedMax = 16384;
  static constexpr std::uint64_t kBlockCycles = 16;

  void add(std::uint64_t cycles);
  void merge(const LatencyHistogram& other);
  void reset() noexcept;

  // Calls f(cycle, count) for every nonzero bucket, cycles ascending: the
  // bucket table for cross-process result shipping. restore() rebuilds the
  // histogram from such (cycle, count) pairs plus the overflow-bucket
  // population. All derived state (count, sum, min, max) is recomputed
  // except the overflow contribution to sum/min/max, which the saturating
  // bucket cannot recover — callers pass the original sum/min/max
  // alongside.
  template <typename F>
  void for_each_bucket(F&& f) const {
    for (std::size_t b = 0; b < slot_.size(); ++b) {
      if (slot_[b] == 0) continue;
      const Block& block = blocks_[slot_[b] - 1];
      for (std::uint64_t i = 0; i < kBlockCycles; ++i) {
        if (block.counts[i] != 0) f(block.first + i, block.counts[i]);
      }
    }
  }
  void restore(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                   cycle_counts,
               std::uint64_t overflow, std::uint64_t count, std::uint64_t sum,
               std::uint64_t min, std::uint64_t max);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  // Exact sum of every recorded latency, overflow samples included (their
  // true values, not the saturated bucket) — mean() = sum()/count().
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ > 0 ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return count_ > 0 ? max_ : 0;
  }
  [[nodiscard]] double mean() const noexcept;

  // Nearest-rank percentile, q in [0, 100]: the smallest recorded latency L
  // such that at least ceil(q/100 * count) samples are <= L. Returns 0 when
  // empty; returns max() when the rank lands in the overflow bucket.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;
  [[nodiscard]] std::uint64_t p50() const noexcept { return percentile(50); }
  [[nodiscard]] std::uint64_t p95() const noexcept { return percentile(95); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return percentile(99); }

 private:
  struct Block {
    std::uint64_t first = 0;  // cycle of counts[0]
    std::array<std::uint64_t, kBlockCycles> counts{};
  };

  // The block holding `cycle` (< kTrackedMax), allocated on first touch.
  Block& block_for(std::uint64_t cycle);

  // slot_[b] = 1 + index into blocks_ of the block starting at cycle
  // b * kBlockCycles, 0 while that block is untouched; it spans the highest
  // block touched so far. blocks_ is in first-touch order.
  std::vector<std::uint16_t> slot_;
  std::vector<Block> blocks_;
  std::uint64_t count_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

// Ratio helper: returns 100*(num/den - 1), i.e. percentage overhead of `num`
// relative to baseline `den`; 0 when den == 0.
[[nodiscard]] double percent_overhead(double num, double den) noexcept;

// Returns num/den, 0 when den == 0 (used when summarizing empty runs).
[[nodiscard]] double safe_ratio(double num, double den) noexcept;

}  // namespace secbus::util
