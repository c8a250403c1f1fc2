#include "crypto/sha256.hpp"

#include <cstring>

#include "util/bitops.hpp"

namespace secbus::crypto {

namespace {

using util::load_be32;
using util::rotr32;
using util::store_be32;
using util::store_be64;

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::compress_blocks(const std::uint8_t* blocks,
                             std::size_t nblocks) noexcept {
  if (nblocks == 0) return;
  if (impl_ == ShaImpl::kShaNi) {
    accel::sha256_compress(state_.data(), blocks, nblocks);
    return;
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    process_block(blocks + kSha256BlockBytes * b);
  }
}

// Scalar FIPS 180-4 rounds; counting happens in compress_blocks.
void Sha256::process_block(const std::uint8_t block[kSha256BlockBytes]) noexcept {
  std::uint32_t w[64];
  for (int t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  for (int t = 16; t < 64; ++t) {
    const std::uint32_t s0 =
        rotr32(w[t - 15], 7) ^ rotr32(w[t - 15], 18) ^ (w[t - 15] >> 3);
    const std::uint32_t s1 =
        rotr32(w[t - 2], 17) ^ rotr32(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int t = 0; t < 64; ++t) {
    const std::uint32_t sigma1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + sigma1 + ch + kRoundConstants[static_cast<std::size_t>(t)] + w[t];
    const std::uint32_t sigma0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = sigma0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take =
        std::min(kSha256BlockBytes - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off += take;
    if (buffered_ == kSha256BlockBytes) {
      compress_blocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Feed every whole block in one batched call so the hardware datapath
  // repacks its state once per run instead of once per block.
  const std::size_t whole = (data.size() - off) / kSha256BlockBytes;
  if (whole > 0) {
    compress_blocks(data.data() + off, whole);
    off += whole * kSha256BlockBytes;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

void Sha256::update(std::string_view text) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length.
  std::uint8_t pad[kSha256BlockBytes * 2] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_bytes_ % kSha256BlockBytes);
  const std::size_t pad_len =
      (rem < 56) ? (56 - rem) : (kSha256BlockBytes + 56 - rem);
  std::uint8_t length_be[8];
  store_be64(length_be, bit_len);
  update(std::span<const std::uint8_t>(pad, pad_len));
  update(std::span<const std::uint8_t>(length_be, 8));

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    store_be32(out.data() + 4 * i, state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Sha256Digest Sha256::digest(std::span<const std::uint8_t> data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Sha256Digest Sha256::digest(std::string_view text) noexcept {
  Sha256 ctx;
  ctx.update(text);
  return ctx.finalize();
}

Sha256Digest Sha256::digest_parts(
    std::initializer_list<std::span<const std::uint8_t>> parts) noexcept {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();

  // 4 blocks cover message + 0x80 + length for totals up to 247 bytes.
  constexpr std::size_t kMaxBlocks = 4;
  if (total + 9 <= kMaxBlocks * kSha256BlockBytes) {
    std::uint8_t buf[kMaxBlocks * kSha256BlockBytes];
    std::size_t off = 0;
    for (const auto& p : parts) {
      if (p.empty()) continue;
      std::memcpy(buf + off, p.data(), p.size());
      off += p.size();
    }
    const std::size_t nblocks = (off + 9 + kSha256BlockBytes - 1) / kSha256BlockBytes;
    buf[off] = 0x80;
    std::memset(buf + off + 1, 0, nblocks * kSha256BlockBytes - off - 9);
    store_be64(buf + nblocks * kSha256BlockBytes - 8, total * 8);
    Sha256 ctx;
    ctx.compress_blocks(buf, nblocks);
    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
      store_be32(out.data() + 4 * i, ctx.state_[static_cast<std::size_t>(i)]);
    }
    return out;
  }

  Sha256 ctx;
  for (const auto& p : parts) ctx.update(p);
  return ctx.finalize();
}

}  // namespace secbus::crypto
