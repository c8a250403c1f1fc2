#include "crypto/aes_modes.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace secbus::crypto {

namespace {

// Tweak blocks per encrypt_blocks call: enough to keep the AES-NI pipeline
// full (4 in flight) while staying a small stack buffer.
inline constexpr std::size_t kCtrBatchBlocks = 8;

// Writes `n` consecutive line-tweak blocks: nonce, stepping block address,
// fixed version (make_memory_tweak layout).
void fill_line_tweaks(std::uint32_t nonce, std::uint64_t addr,
                      std::uint32_t version, std::uint8_t* counters,
                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* t = counters + kAesBlockBytes * i;
    util::store_be32(t, nonce);
    util::store_be64(t + 4, addr + kAesBlockBytes * i);
    util::store_be32(t + 12, version);
  }
}

// out = in ^ ks over n bytes (a whole number of blocks) in 64-bit lanes.
// in/out may be the same pointer (each lane loads before it stores).
void xor_keystream(const std::uint8_t* in, const std::uint8_t* ks,
                   std::uint8_t* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t a, k;
    std::memcpy(&a, in + i, 8);
    std::memcpy(&k, ks + i, 8);
    a ^= k;
    std::memcpy(out + i, &a, 8);
  }
}

}  // namespace

AesBlock make_memory_tweak(std::uint32_t nonce, std::uint64_t block_addr,
                           std::uint32_t version) noexcept {
  AesBlock ctr{};
  util::store_be32(ctr.data(), nonce);
  util::store_be64(ctr.data() + 4, block_addr);
  util::store_be32(ctr.data() + 12, version);
  return ctr;
}

void memory_xcrypt_line(const Aes128& aes, std::uint32_t nonce,
                        std::uint64_t line_addr, std::uint32_t version,
                        std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out) noexcept {
  SECBUS_ASSERT(in.size() == out.size() && in.size() % kAesBlockBytes == 0,
                "line transform requires equal-size whole-block spans");
  std::uint8_t tweaks[kAesBlockBytes * kCtrBatchBlocks];
  std::uint8_t keystream[kAesBlockBytes * kCtrBatchBlocks];
  for (std::size_t off = 0; off < in.size();) {
    const std::size_t nblocks =
        std::min((in.size() - off) / kAesBlockBytes, kCtrBatchBlocks);
    const std::size_t nbytes = nblocks * kAesBlockBytes;
    fill_line_tweaks(nonce, line_addr + off, version, tweaks, nblocks);
    aes.encrypt_blocks(tweaks, keystream, nblocks);
    xor_keystream(in.data() + off, keystream, out.data() + off, nbytes);
    off += nbytes;
  }
}

}  // namespace secbus::crypto
