// Property test: the Local Ciphering Firewall, across random mixed
// workloads, must behave exactly like a plain byte-addressable memory —
// encryption, integrity trees, versions and read-modify-writes are
// semantically invisible to legitimate traffic. A shadow byte array models
// the expected contents; any divergence is a correctness bug in the
// CC/IC/RMW machinery.
#include <gtest/gtest.h>

#include <vector>

#include "core/ciphering_firewall.hpp"
#include "core/local_firewall.hpp"
#include "util/rng.hpp"

namespace secbus::core {
namespace {

constexpr sim::Addr kBase = 0x8000'0000;
constexpr std::uint64_t kDdrSize = 64 * 1024;
constexpr std::uint64_t kProtSize = 16 * 1024;
constexpr FirewallId kFw = 21;

struct ShadowParam {
  ConfidentialityMode cm;
  IntegrityMode im;
  std::uint64_t seed;
};

class LcfShadowSweep : public ::testing::TestWithParam<ShadowParam> {};

TEST_P(LcfShadowSweep, RandomOpsMatchShadowMemory) {
  const ShadowParam param = GetParam();

  ConfigurationMemory config_mem;
  SecurityEventLog log;
  crypto::Aes128Key key{};
  key[3] = 0x77;
  PolicyBuilder b(kFw);
  b.allow(kBase, kDdrSize, RwAccess::kReadWrite, FormatMask::kAll, "ddr");
  b.confidentiality(param.cm);
  b.integrity(param.im);
  b.key(key);
  config_mem.install(kFw, b.build());

  mem::DdrMemory::Config ddr_cfg;
  ddr_cfg.base = kBase;
  ddr_cfg.size = kDdrSize;
  mem::DdrMemory ddr("ddr", ddr_cfg);

  LocalCipheringFirewall::Config cfg;
  cfg.protected_base = kBase;
  cfg.protected_size = kProtSize;
  cfg.line_bytes = 32;
  LocalCipheringFirewall lcf("lcf", kFw, config_mem, ddr, cfg);
  lcf.format_protected_region();
  SlaveFirewall fw("lcf", kFw, config_mem, log, lcf);

  // Shadow model: plain bytes, zero-initialized like the formatted region.
  std::vector<std::uint8_t> shadow(kDdrSize, 0);

  util::Xoshiro256 rng(param.seed);
  sim::Cycle now = 0;
  for (int op = 0; op < 400; ++op) {
    // Random span: 1..8 beats of a random format, anywhere in the DDR
    // (protected window and unprotected scratch both exercised).
    const bus::DataFormat fmt = rng.chance(0.2)   ? bus::DataFormat::kByte
                                : rng.chance(0.3) ? bus::DataFormat::kHalfWord
                                                  : bus::DataFormat::kWord;
    const auto burst = static_cast<std::uint16_t>(rng.range(1, 8));
    const std::uint64_t bytes = burst * bus::beat_bytes(fmt);
    const sim::Addr addr =
        kBase + rng.below(kDdrSize - bytes) / bus::beat_bytes(fmt) *
                    bus::beat_bytes(fmt);

    now += 500;  // keep per-op times monotonic
    if (rng.chance(0.5)) {
      std::vector<std::uint8_t> payload(bytes);
      rng.fill({payload.data(), payload.size()});
      std::copy(payload.begin(), payload.end(),
                shadow.begin() + static_cast<long>(addr - kBase));
      auto t = bus::make_write(0, addr, std::move(payload), fmt);
      const auto result = fw.access(t, now);
      ASSERT_EQ(result.status, bus::TransStatus::kOk)
          << "write failed at op " << op << " addr 0x" << std::hex << addr;
    } else {
      auto t = bus::make_read(0, addr, fmt, burst);
      const auto result = fw.access(t, now);
      ASSERT_EQ(result.status, bus::TransStatus::kOk)
          << "read failed at op " << op << " addr 0x" << std::hex << addr;
      const std::vector<std::uint8_t> expected(
          shadow.begin() + static_cast<long>(addr - kBase),
          shadow.begin() + static_cast<long>(addr - kBase + bytes));
      ASSERT_EQ(t.data, expected)
          << "read mismatch at op " << op << " addr 0x" << std::hex << addr;
    }
  }
  EXPECT_EQ(log.count(), 0u) << "legitimate traffic must never alert";
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, LcfShadowSweep,
    ::testing::Values(
        ShadowParam{ConfidentialityMode::kBypass, IntegrityMode::kBypass, 1},
        ShadowParam{ConfidentialityMode::kCipher, IntegrityMode::kBypass, 2},
        ShadowParam{ConfidentialityMode::kCipher, IntegrityMode::kHashTree, 3},
        ShadowParam{ConfidentialityMode::kCipher, IntegrityMode::kHashTree, 4},
        ShadowParam{ConfidentialityMode::kCipher, IntegrityMode::kHashTree, 5},
        ShadowParam{ConfidentialityMode::kBypass, IntegrityMode::kHashTree, 6}),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param.cm)) == "cipher"
                 ? (param_info.param.im == IntegrityMode::kHashTree
                        ? "full_seed" + std::to_string(param_info.param.seed)
                        : "cipheronly_seed" + std::to_string(param_info.param.seed))
                 : (param_info.param.im == IntegrityMode::kHashTree
                        ? "integrityonly_seed" + std::to_string(param_info.param.seed)
                        : "plain_seed" + std::to_string(param_info.param.seed));
    });

}  // namespace
}  // namespace secbus::core
