#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace secbus::util {

void RunningStat::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::reset() noexcept { *this = RunningStat{}; }

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStat::Snapshot RunningStat::snapshot() const noexcept {
  Snapshot snap;
  snap.count = n_;
  if (n_ == 0) return snap;  // min/max are +/-inf sentinels; don't leak them
  snap.mean = mean_;
  snap.m2 = m2_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

void RunningStat::restore(const Snapshot& snap) noexcept {
  reset();
  if (snap.count == 0) return;
  n_ = snap.count;
  mean_ = snap.mean;
  m2_ = snap.m2;
  sum_ = snap.sum;
  min_ = snap.min;
  max_ = snap.max;
}

double RunningStat::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

LatencyHistogram::Block& LatencyHistogram::block_for(std::uint64_t cycle) {
  const std::uint64_t b = cycle / kBlockCycles;
  if (b >= slot_.size()) slot_.resize(b + 1, 0);
  if (slot_[b] == 0) {
    blocks_.push_back(Block{b * kBlockCycles, {}});
    slot_[b] = static_cast<std::uint16_t>(blocks_.size());
  }
  return blocks_[slot_[b] - 1];
}

// One slot per block must fit the 16-bit slot index.
static_assert(LatencyHistogram::kTrackedMax / LatencyHistogram::kBlockCycles <=
              std::numeric_limits<std::uint16_t>::max());

void LatencyHistogram::add(std::uint64_t cycles) {
  ++count_;
  sum_ += cycles;
  min_ = std::min(min_, cycles);
  max_ = std::max(max_, cycles);
  if (cycles >= kTrackedMax) {
    ++overflow_;
    return;
  }
  ++block_for(cycles).counts[cycles % kBlockCycles];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  count_ += other.count_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (other.slot_.size() > slot_.size()) slot_.resize(other.slot_.size(), 0);
  // Bucket sums do not depend on order, so other's blocks are taken in
  // their storage order. Self-merge allocates no block, so the loop's
  // range stays valid.
  for (const Block& from : other.blocks_) {
    Block& to = block_for(from.first);
    for (std::size_t i = 0; i < kBlockCycles; ++i) to.counts[i] += from.counts[i];
  }
}

void LatencyHistogram::reset() noexcept { *this = LatencyHistogram{}; }

void LatencyHistogram::restore(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& cycle_counts,
    std::uint64_t overflow, std::uint64_t count, std::uint64_t sum,
    std::uint64_t min, std::uint64_t max) {
  reset();
  for (const auto& [cycle, n] : cycle_counts) {
    SECBUS_ASSERT(cycle < kTrackedMax && n > 0,
                  "histogram restore: bad bucket");
    block_for(cycle).counts[cycle % kBlockCycles] += n;
  }
  overflow_ = overflow;
  count_ = count;
  sum_ = sum;
  if (count_ > 0) {
    min_ = min;
    max_ = max;
  }
}

double LatencyHistogram::mean() const noexcept {
  return count_ > 0
             ? static_cast<double>(sum_) / static_cast<double>(count_)
             : 0.0;
}

std::uint64_t LatencyHistogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cumulative = 0;
  for (const std::uint16_t slot : slot_) {
    if (slot == 0) continue;
    const Block& block = blocks_[slot - 1];
    for (std::uint64_t i = 0; i < kBlockCycles; ++i) {
      cumulative += block.counts[i];
      if (cumulative >= rank) return block.first + i;
    }
  }
  return max_;  // rank lands among the overflow samples
}

double percent_overhead(double num, double den) noexcept {
  if (den == 0.0) return 0.0;
  return 100.0 * (num / den - 1.0);
}

double safe_ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace secbus::util
