#include "util/rng.hpp"

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace secbus::util {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  SECBUS_ASSERT(bound != 0, "below() requires a nonzero bound");
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Xoshiro256::range(std::uint64_t lo, std::uint64_t hi) noexcept {
  SECBUS_ASSERT(lo <= hi, "range() requires lo <= hi");
  const std::uint64_t span = hi - lo;
  if (span == ~std::uint64_t{0}) return next();
  return lo + below(span + 1);
}

double Xoshiro256::uniform01() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

void Xoshiro256::fill(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    store_le64(out.data() + i, next());
    i += 8;
  }
  if (i < out.size()) {
    std::uint64_t tail = next();
    for (; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(tail);
      tail >>= 8;
    }
  }
}

double Xoshiro256::weight_total(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  return total;
}

std::size_t Xoshiro256::weighted_pick(std::span<const double> weights,
                                      double total) noexcept {
  SECBUS_ASSERT(!weights.empty(), "weighted_pick() requires at least one weight");
  if (total <= 0.0) return below(weights.size());
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // floating-point slack lands on the last bucket
}

void Xoshiro256::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL, 0x77710069854EE241ULL,
      0x39109BB02ACBE635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (void)next();
    }
  }
  s_ = {s0, s1, s2, s3};
}

Xoshiro256 Xoshiro256::substream(unsigned n) const noexcept {
  Xoshiro256 copy = *this;
  for (unsigned i = 0; i <= n; ++i) copy.long_jump();
  return copy;
}

}  // namespace secbus::util
