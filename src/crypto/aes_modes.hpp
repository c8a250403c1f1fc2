// The Local Ciphering Firewall's memory-line cipher: tweaked CTR over Aes128.
//
// The keystream for external-memory block b at write-version v is
// AES_k(nonce || b || v). Binding the counter to the block address defeats
// relocation (moved ciphertext decrypts under the wrong keystream) and
// binding it to the version defeats replay at the confidentiality layer,
// mirroring the time-stamp + address-check design of Section IV.A. The
// transform is its own inverse, so the cipher only ever runs forward.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/aes128.hpp"

namespace secbus::crypto {

// Builds the tweaked counter block used by the LCF:
//   bytes 0..3   nonce (per-policy salt)
//   bytes 4..11  block address (big-endian)
//   bytes 12..15 write version (big-endian)
[[nodiscard]] AesBlock make_memory_tweak(std::uint32_t nonce, std::uint64_t block_addr,
                                         std::uint32_t version) noexcept;

// Whole-line tweaked-CTR transform: block i of the line is XORed with
// AES_k(make_memory_tweak(nonce, line_addr + 16*i, version)). The keystream
// is generated a few blocks per encrypt_blocks call through a fixed stack
// buffer, so the call never allocates. This is the Confidentiality Core's
// entry point for both directions — spans must be equal-sized whole blocks;
// in/out may alias.
void memory_xcrypt_line(const Aes128& aes, std::uint32_t nonce,
                        std::uint64_t line_addr, std::uint32_t version,
                        std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out) noexcept;

}  // namespace secbus::crypto
