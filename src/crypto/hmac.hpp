// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//
// Used by the LCF to derive its per-policy CTR nonce from the 128-bit
// cryptographic key (CK) parameter (derive_key below), so two LCFs with
// different keys never share keystream. The Integrity Core's hash tree uses
// plain SHA-256, not HMAC.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace secbus::crypto {

class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key) noexcept { rekey(key); }

  void rekey(std::span<const std::uint8_t> key) noexcept;

  // One-shot MAC over `data` with the configured key.
  [[nodiscard]] Sha256Digest mac(std::span<const std::uint8_t> data) const noexcept;

  // Streaming interface.
  void start() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] Sha256Digest finish() noexcept;

 private:
  std::array<std::uint8_t, kSha256BlockBytes> ipad_key_{};
  std::array<std::uint8_t, kSha256BlockBytes> opad_key_{};
  Sha256 inner_;
};

// HKDF-style expansion: derive `out.size()` bytes from key material and an
// info label (single-round simplified HKDF; enough for domain separation of
// simulator keys, documented as non-standard).
void derive_key(std::span<const std::uint8_t> master, std::span<const std::uint8_t> info,
                std::span<std::uint8_t> out) noexcept;

}  // namespace secbus::crypto
