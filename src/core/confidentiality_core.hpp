// Confidentiality Core (CC) — Section IV.B.2.
//
// "This module is responsible for ciphering operations. This core is based
// on a AES (Advanced Encryption Standard) algorithm with 128-bits key."
//
// Functional model: tweaked AES-CTR per 16-byte cipher block. The keystream
// for the block at address A under write-version V is AES_k(nonce||A||V), so
//   * relocated ciphertext decrypts under the wrong address tweak,
//   * replayed ciphertext decrypts under the wrong version tweak,
// turning both attacks into garbage plaintext even before the Integrity Core
// flags them.
//
// Timing model: calibrated to the paper's Table II — 11 cycles of pipeline
// latency per operation and a sustained rate of 4.5 bits/cycle, which at the
// ML605's 100 MHz bus clock is the reported 450 Mb/s.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/aes128.hpp"
#include "crypto/aes_modes.hpp"
#include "sim/types.hpp"

namespace secbus::core {

class ConfidentialityCore {
 public:
  struct Config {
    sim::Cycle latency_cycles = 11;  // Table II: ciphering operation
    double bits_per_cycle = 4.5;     // 450 Mb/s @ 100 MHz
    std::uint32_t nonce = 0;         // per-policy salt derived from CK
  };

  struct Stats {
    std::uint64_t operations = 0;  // encrypt/decrypt calls
    std::uint64_t bytes = 0;
    std::uint64_t cycles_charged = 0;
  };

  ConfidentialityCore(const crypto::Aes128Key& key, Config cfg);

  void rekey(const crypto::Aes128Key& key) noexcept { aes_.rekey(key); }

  // Encrypts/decrypts `len = in.size()` bytes starting at memory address
  // `addr` written at version `version`. in/out may alias. `addr` must be
  // 16-byte aligned and len a multiple of 16 (the LCF works on whole lines).
  sim::Cycle encrypt(sim::Addr addr, std::uint32_t version,
                     std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out);
  sim::Cycle decrypt(sim::Addr addr, std::uint32_t version,
                     std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out);

  // Cycles one operation over `bits` costs under the timing model.
  [[nodiscard]] sim::Cycle cost_for_bits(std::uint64_t bits) const noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  sim::Cycle xcrypt(sim::Addr addr, std::uint32_t version,
                    std::span<const std::uint8_t> in, std::span<std::uint8_t> out);

  crypto::Aes128 aes_;
  Config cfg_;
  Stats stats_;
};

}  // namespace secbus::core
