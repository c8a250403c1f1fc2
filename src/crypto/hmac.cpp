#include "crypto/hmac.hpp"

#include <cstring>

namespace secbus::crypto {

void HmacSha256::rekey(std::span<const std::uint8_t> key) noexcept {
  std::array<std::uint8_t, kSha256BlockBytes> normalized{};
  if (key.size() > kSha256BlockBytes) {
    const Sha256Digest d = Sha256::digest(key);
    std::memcpy(normalized.data(), d.data(), d.size());
  } else {
    std::memcpy(normalized.data(), key.data(), key.size());
  }
  for (std::size_t i = 0; i < kSha256BlockBytes; ++i) {
    ipad_key_[i] = normalized[i] ^ 0x36;
    opad_key_[i] = normalized[i] ^ 0x5C;
  }
}

Sha256Digest HmacSha256::mac(std::span<const std::uint8_t> data) const noexcept {
  // Both hashes go through the fused one-shot path (the outer message is
  // always 96 bytes; short inner messages fuse too, longer ones stream).
  const Sha256Digest inner_digest = Sha256::digest_parts(
      {std::span<const std::uint8_t>(ipad_key_.data(), ipad_key_.size()), data});
  return Sha256::digest_parts(
      {std::span<const std::uint8_t>(opad_key_.data(), opad_key_.size()),
       std::span<const std::uint8_t>(inner_digest.data(), inner_digest.size())});
}

void HmacSha256::start() noexcept {
  inner_.reset();
  inner_.update(std::span<const std::uint8_t>(ipad_key_.data(), ipad_key_.size()));
}

void HmacSha256::update(std::span<const std::uint8_t> data) noexcept {
  inner_.update(data);
}

Sha256Digest HmacSha256::finish() noexcept {
  const Sha256Digest inner_digest = inner_.finalize();
  return Sha256::digest_parts(
      {std::span<const std::uint8_t>(opad_key_.data(), opad_key_.size()),
       std::span<const std::uint8_t>(inner_digest.data(), inner_digest.size())});
}

void derive_key(std::span<const std::uint8_t> master, std::span<const std::uint8_t> info,
                std::span<std::uint8_t> out) noexcept {
  std::uint8_t counter = 1;
  std::size_t produced = 0;
  Sha256Digest block{};
  while (produced < out.size()) {
    HmacSha256 round(master);
    round.start();
    if (produced > 0) {
      round.update(std::span<const std::uint8_t>(block.data(), block.size()));
    }
    round.update(info);
    round.update(std::span<const std::uint8_t>(&counter, 1));
    block = round.finish();
    const std::size_t take = std::min(block.size(), out.size() - produced);
    std::memcpy(out.data() + produced, block.data(), take);
    produced += take;
    ++counter;
  }
}

}  // namespace secbus::crypto
