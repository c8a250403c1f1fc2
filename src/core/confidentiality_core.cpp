#include "core/confidentiality_core.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace secbus::core {

ConfidentialityCore::ConfidentialityCore(const crypto::Aes128Key& key, Config cfg)
    : aes_(key), cfg_(cfg) {
  SECBUS_ASSERT(cfg.bits_per_cycle > 0.0, "CC throughput must be positive");
}

sim::Cycle ConfidentialityCore::cost_for_bits(std::uint64_t bits) const noexcept {
  const auto stream_cycles = static_cast<sim::Cycle>(
      std::ceil(static_cast<double>(bits) / cfg_.bits_per_cycle));
  return cfg_.latency_cycles + stream_cycles;
}

sim::Cycle ConfidentialityCore::xcrypt(sim::Addr addr, std::uint32_t version,
                                       std::span<const std::uint8_t> in,
                                       std::span<std::uint8_t> out) {
  SECBUS_ASSERT(in.size() == out.size(), "CC spans must match");
  SECBUS_ASSERT(in.size() % crypto::kAesBlockBytes == 0,
                "CC operates on whole AES blocks");
  SECBUS_ASSERT(addr % crypto::kAesBlockBytes == 0,
                "CC requires 16-byte aligned addresses");
  // Fresh tweak per 16-byte block: the address field changes per block, so
  // the CTR counter field never has to carry across blocks and keystream
  // never repeats across (address, version) pairs. The line's keystream is
  // generated in stack-buffered batches, so the access path never allocates.
  crypto::memory_xcrypt_line(aes_, cfg_.nonce, addr, version, in, out);
  ++stats_.operations;
  stats_.bytes += in.size();
  const sim::Cycle cycles = cost_for_bits(static_cast<std::uint64_t>(in.size()) * 8);
  stats_.cycles_charged += cycles;
  return cycles;
}

sim::Cycle ConfidentialityCore::encrypt(sim::Addr addr, std::uint32_t version,
                                        std::span<const std::uint8_t> in,
                                        std::span<std::uint8_t> out) {
  return xcrypt(addr, version, in, out);
}

sim::Cycle ConfidentialityCore::decrypt(sim::Addr addr, std::uint32_t version,
                                        std::span<const std::uint8_t> in,
                                        std::span<std::uint8_t> out) {
  // CTR mode: decryption is the same keystream XOR.
  return xcrypt(addr, version, in, out);
}

}  // namespace secbus::core
