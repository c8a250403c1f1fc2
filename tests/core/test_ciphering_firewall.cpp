// The LCF stack: a slave-side Local Firewall ("lcf_ddr") in front of the
// ciphering datapath (CC, IC, read-modify-write) over the external DDR.
#include "core/ciphering_firewall.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/local_firewall.hpp"
#include "obs/registry.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace secbus::core {
namespace {

using bus::DataFormat;
using bus::TransStatus;

constexpr sim::Addr kDdrBase = 0x8000'0000;
constexpr std::uint64_t kDdrSize = 64 * 1024;
constexpr std::uint64_t kProtSize = 8 * 1024;  // 256 lines of 32 bytes
constexpr FirewallId kFw = 10;

crypto::Aes128Key test_key() {
  crypto::Aes128Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  return key;
}

struct LcfFixture {
  LcfFixture(ConfidentialityMode cm, IntegrityMode im,
             std::uint64_t line_bytes = 32) {
    PolicyBuilder b(kFw);
    b.allow(kDdrBase, kDdrSize, RwAccess::kReadWrite, FormatMask::kAll, "ddr");
    b.confidentiality(cm);
    b.integrity(im);
    b.key(test_key());
    config_mem.install(kFw, b.build());

    mem::DdrMemory::Config ddr_cfg;
    ddr_cfg.base = kDdrBase;
    ddr_cfg.size = kDdrSize;
    ddr = std::make_unique<mem::DdrMemory>("ddr", ddr_cfg);

    LocalCipheringFirewall::Config cfg;
    cfg.protected_base = kDdrBase;
    cfg.protected_size = kProtSize;
    cfg.line_bytes = line_bytes;
    lcf = std::make_unique<LocalCipheringFirewall>("lcf", kFw, config_mem,
                                                   *ddr, cfg);
    fw = std::make_unique<SlaveFirewall>("lcf", kFw, config_mem, log, *lcf);
  }

  bus::BusTransaction write(sim::Addr addr, std::vector<std::uint8_t> data,
                            sim::Cycle now = 0) {
    auto t = bus::make_write(0, addr, std::move(data));
    last_result = fw->access(t, now);
    return t;
  }
  bus::BusTransaction read(sim::Addr addr, std::size_t bytes,
                           sim::Cycle now = 0) {
    auto t = bus::make_read(0, addr, DataFormat::kWord,
                            static_cast<std::uint16_t>(bytes / 4));
    last_result = fw->access(t, now);
    return t;
  }
  std::vector<std::uint8_t> raw(sim::Addr addr, std::size_t len) {
    std::vector<std::uint8_t> out(len);
    ddr->store().peek(addr, {out.data(), out.size()});
    return out;
  }

  ConfigurationMemory config_mem;
  SecurityEventLog log;
  std::unique_ptr<mem::DdrMemory> ddr;
  std::unique_ptr<LocalCipheringFirewall> lcf;
  std::unique_ptr<SlaveFirewall> fw;
  bus::AccessResult last_result;
};

std::vector<std::uint8_t> pattern(std::size_t len, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 3 + salt + 1);
  }
  return out;
}

TEST(Lcf, FullProtectionRoundTrip) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const auto data = pattern(32);
  f.write(kDdrBase, data);
  EXPECT_EQ(f.last_result.status, TransStatus::kOk);
  const auto back = f.read(kDdrBase, 32);
  EXPECT_EQ(back.status, TransStatus::kOk);
  EXPECT_EQ(back.data, data);
  EXPECT_TRUE(f.log.alerts().empty());
}

TEST(Lcf, CiphertextStoredNotPlaintext) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const auto data = pattern(32);
  f.write(kDdrBase, data);
  EXPECT_NE(f.raw(kDdrBase, 32), data);
}

TEST(Lcf, PlaintextModeStoresPlaintext) {
  LcfFixture f(ConfidentialityMode::kBypass, IntegrityMode::kBypass);
  const auto data = pattern(32);
  f.write(kDdrBase, data);
  EXPECT_EQ(f.raw(kDdrBase, 32), data);
}

TEST(Lcf, PartialWriteReadModifyWrite) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const auto line = pattern(32);
  f.write(kDdrBase, line);
  // Overwrite bytes 8..11 only.
  f.write(kDdrBase + 8, {0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(f.lcf->stats().read_modify_writes, 1u);
  auto expected = line;
  expected[8] = 0xDE;
  expected[9] = 0xAD;
  expected[10] = 0xBE;
  expected[11] = 0xEF;
  EXPECT_EQ(f.read(kDdrBase, 32).data, expected);
}

TEST(Lcf, MultiLineWriteAndRead) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const auto data = pattern(96);  // 3 lines
  f.write(kDdrBase + 32, data);
  EXPECT_EQ(f.read(kDdrBase + 32, 96).data, data);
  EXPECT_EQ(f.lcf->stats().lines_encrypted, 3u);
}

TEST(Lcf, SpoofDetectedUnderFullProtection) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  f.write(kDdrBase, pattern(32));
  // Attacker overwrites ciphertext directly.
  const auto forged = pattern(32, 0x80);
  f.ddr->store().poke(kDdrBase, {forged.data(), forged.size()});
  const auto back = f.read(kDdrBase, 32);
  EXPECT_EQ(back.status, TransStatus::kIntegrityError);
  EXPECT_EQ(back.data, std::vector<std::uint8_t>(32, 0));  // discarded
  EXPECT_EQ(f.log.count_of(Violation::kIntegrityFailure), 1u);
  EXPECT_EQ(f.lcf->stats().integrity_failures, 1u);
}

TEST(Lcf, ReplayDetectedUnderFullProtection) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  f.write(kDdrBase, pattern(32, 1));
  const auto stale = f.raw(kDdrBase, 32);  // attacker records ciphertext
  f.write(kDdrBase, pattern(32, 2));       // victim updates (version bump)
  f.ddr->store().poke(kDdrBase, {stale.data(), stale.size()});  // replay
  EXPECT_EQ(f.read(kDdrBase, 32).status, TransStatus::kIntegrityError);
}

TEST(Lcf, RelocationDetectedUnderFullProtection) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  f.write(kDdrBase, pattern(32, 1));
  f.write(kDdrBase + 32, pattern(32, 2));
  const auto donor = f.raw(kDdrBase + 32, 32);
  f.ddr->store().poke(kDdrBase, {donor.data(), donor.size()});
  EXPECT_EQ(f.read(kDdrBase, 32).status, TransStatus::kIntegrityError);
}

TEST(Lcf, CipherOnlyMisssesTamperButGarbles) {
  // The paper's cipher-only case: the attacker can DoS by random changes;
  // no detection, but no meaningful data either.
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kBypass);
  const auto data = pattern(32);
  f.write(kDdrBase, data);
  auto tampered = f.raw(kDdrBase, 32);
  tampered[5] ^= 0xFF;
  f.ddr->store().poke(kDdrBase, {tampered.data(), tampered.size()});
  const auto back = f.read(kDdrBase, 32);
  EXPECT_EQ(back.status, TransStatus::kOk);  // NOT detected
  EXPECT_NE(back.data, data);                // but corrupted
  EXPECT_TRUE(f.log.alerts().empty());
}

TEST(Lcf, PlaintextModeAdmitsSpoofSilently) {
  LcfFixture f(ConfidentialityMode::kBypass, IntegrityMode::kBypass);
  f.write(kDdrBase, pattern(32));
  const auto forged = pattern(32, 0x80);
  f.ddr->store().poke(kDdrBase, {forged.data(), forged.size()});
  const auto back = f.read(kDdrBase, 32);
  EXPECT_EQ(back.status, TransStatus::kOk);
  EXPECT_EQ(back.data, forged);  // attack fully succeeded
  EXPECT_TRUE(f.log.alerts().empty());
}

TEST(Lcf, UnprotectedRegionPassesThrough) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const sim::Addr scratch = kDdrBase + kProtSize + 64;
  const auto data = pattern(16);
  f.write(scratch, data);
  EXPECT_EQ(f.raw(scratch, 16), data);  // plaintext: outside the window
  EXPECT_EQ(f.read(scratch, 16).data, data);
  EXPECT_EQ(f.lcf->stats().passthrough, 2u);
}

TEST(Lcf, RuleViolationBlockedBeforeMemory) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  auto t = bus::make_read(0, kDdrBase - 0x1000);  // outside every segment
  const auto result = f.fw->access(t, 0);
  EXPECT_EQ(result.status, TransStatus::kSecurityViolation);
  f.write(kDdrBase - 0x1000, pattern(32));
  EXPECT_EQ(f.last_result.status, TransStatus::kSecurityViolation);
  EXPECT_EQ(f.log.count_of(Violation::kNoMatchingSegment), 2u);
  EXPECT_EQ(f.fw->stats().blocked, 2u);
  // Neither access reached the datapath or the DDR.
  const LocalCipheringFirewall::Stats& s = f.lcf->stats();
  EXPECT_EQ(s.passthrough + s.protected_reads + s.protected_writes, 0u);
  EXPECT_EQ(f.lcf->cc().stats().operations, 0u);
  EXPECT_EQ(f.ddr->stats().reads + f.ddr->stats().writes, 0u);
}

TEST(Lcf, ProtectedAccessCostsMoreThanPassthrough) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  f.write(kDdrBase, pattern(32));
  const sim::Cycle protected_cost = f.last_result.latency;
  f.write(kDdrBase + kProtSize + 64, pattern(32));
  const sim::Cycle passthrough_cost = f.last_result.latency;
  EXPECT_GT(protected_cost, passthrough_cost + 200);  // IC dominates
}

TEST(Lcf, TimingIncludesCcAndIcCharges) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  f.write(kDdrBase, pattern(32));
  // Write: check(12) + CC(11+ceil(256/4.5)=57) + IC(20+ceil(256/1.31)=196)
  //        + DDR write latency (>=5).
  EXPECT_GE(f.last_result.latency, 12u + 68u + 216u + 5u);
  const auto& cc_stats = f.lcf->cc().stats();
  const auto& ic_stats = f.lcf->ic().stats();
  EXPECT_EQ(cc_stats.operations, 1u);
  EXPECT_EQ(ic_stats.updates, 1u);
}

TEST(Lcf, FormatRegionZeroFills) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  f.lcf->format_protected_region();
  const auto back = f.read(kDdrBase + 4 * 32, 32);
  EXPECT_EQ(back.status, TransStatus::kOk);
  EXPECT_EQ(back.data, std::vector<std::uint8_t>(32, 0));
  // Stored form is ciphertext, not zeros.
  EXPECT_NE(f.raw(kDdrBase + 4 * 32, 32), std::vector<std::uint8_t>(32, 0));
}

// The format enciphers the whole region in one keystream pass. Each
// block's tweak carries its own address, so the stored image must equal
// the one made line by line: every zero line enciphered at version 1 under
// the line's address.
TEST(Lcf, OnePassFormatEqualsPerLineFormat) {
  for (const std::uint64_t line : {16u, 32u, 64u, 128u}) {
    SCOPED_TRACE(::testing::Message() << "line " << line);
    LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree, line);
    f.lcf->format_protected_region();
    ConfidentialityCore per_line(test_key(), f.lcf->cc().config());
    std::vector<std::uint8_t> expected(kProtSize, 0);
    for (std::uint64_t off = 0; off < kProtSize; off += line) {
      const auto bytes = std::span<std::uint8_t>(expected.data() + off, line);
      (void)per_line.encrypt(kDdrBase + off, 1, bytes, bytes);
    }
    EXPECT_EQ(f.raw(kDdrBase, kProtSize), expected);
    EXPECT_EQ(f.read(kDdrBase + kProtSize - line, line).data,
              std::vector<std::uint8_t>(line, 0));
  }
}

TEST(Lcf, KeyRotationPreservesPlaintext) {
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const auto data = pattern(32, 5);
  f.write(kDdrBase + 64, data);
  const auto raw_before = f.raw(kDdrBase + 64, 32);

  crypto::Aes128Key new_key = test_key();
  new_key[15] ^= 0x55;
  const sim::Cycle cost = f.lcf->rotate_key(new_key);
  EXPECT_GT(cost, 0u);
  EXPECT_EQ(f.lcf->stats().key_rotations, 1u);

  EXPECT_NE(f.raw(kDdrBase + 64, 32), raw_before);  // re-encrypted
  const auto back = f.read(kDdrBase + 64, 32);
  EXPECT_EQ(back.status, TransStatus::kOk);
  EXPECT_EQ(back.data, data);
}

TEST(Lcf, PolicyModeChangeAppliesOnNextAccess) {
  LcfFixture f(ConfidentialityMode::kBypass, IntegrityMode::kBypass);
  EXPECT_EQ(f.lcf->cm(), ConfidentialityMode::kBypass);
  // Reconfigure to cipher mode (key unchanged).
  PolicyBuilder b(kFw);
  b.allow(kDdrBase, kDdrSize, RwAccess::kReadWrite, FormatMask::kAll, "ddr");
  b.confidentiality(ConfidentialityMode::kCipher);
  b.integrity(IntegrityMode::kHashTree);
  b.key(test_key());
  f.config_mem.install(kFw, b.build());

  f.write(kDdrBase + 2 * 32, pattern(32));
  EXPECT_EQ(f.lcf->cm(), ConfidentialityMode::kCipher);
  EXPECT_NE(f.raw(kDdrBase + 2 * 32, 32), pattern(32));
}

TEST(Lcf, EachWriteFreshCiphertext) {
  // Version-tweaked CTR: writing identical plaintext twice yields different
  // ciphertext (no deterministic-encryption leakage across writes).
  LcfFixture f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  const auto data = pattern(32);
  f.write(kDdrBase, data);
  const auto ct1 = f.raw(kDdrBase, 32);
  f.write(kDdrBase, data);
  const auto ct2 = f.raw(kDdrBase, 32);
  EXPECT_NE(ct1, ct2);
}

// --- the LCF in a distributed SoC -----------------------------------------

TEST(LcfSoc, TamperedLineRaisesOneIntegrityAlertAtTheFirewall) {
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.protection = soc::ProtectionLevel::kFull;
  soc::Soc system(cfg);
  SlaveFirewall* fw = system.ddr_firewall();
  ASSERT_NE(fw, nullptr);
  ASSERT_NE(system.lcf(), nullptr);

  const sim::Addr line = cfg.ddr_protected_base;
  std::vector<std::uint8_t> stored(cfg.line_bytes);
  system.ddr().store().peek(line, {stored.data(), stored.size()});
  stored[0] ^= 0x01;
  system.ddr().store().poke(line, {stored.data(), stored.size()});

  auto t = bus::make_read(0, line, DataFormat::kWord,
                          static_cast<std::uint16_t>(cfg.line_bytes / 4));
  EXPECT_EQ(fw->access(t, 100).status, TransStatus::kIntegrityError);
  EXPECT_EQ(t.data, std::vector<std::uint8_t>(cfg.line_bytes, 0));

  ASSERT_EQ(system.log().count(), 1u);
  const Alert& alert = system.log().alerts().front();
  EXPECT_EQ(alert.firewall, soc::kFwLcf);
  EXPECT_EQ(alert.firewall_name, "lcf_ddr");
  EXPECT_EQ(alert.violation, Violation::kIntegrityFailure);
  EXPECT_EQ(alert.cycle, 100u);
  EXPECT_EQ(fw->stats().violation_count(Violation::kIntegrityFailure), 1u);
  EXPECT_EQ(fw->stats().passed, 1u);
  EXPECT_EQ(fw->stats().blocked, 0u);
  EXPECT_EQ(system.lcf()->stats().integrity_failures, 1u);
}

// The DDR firewall's keys, then the datapath's, under one prefix, in the
// order the LCF published them when it carried its own rule check.
TEST(LcfSoc, MetricNamesArePinnedInOrder) {
  soc::Soc system(soc::tiny_test_config());
  obs::Registry reg;
  system.snapshot_metrics(reg);
  std::vector<std::string> names;
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < reg.metrics().size(); ++i) {
    const std::string& name = reg.metrics()[i].name;
    if (name.rfind("core.lcf_ddr.", 0) == 0) {
      names.push_back(name.substr(13));
      positions.push_back(i);
    }
  }
  const std::vector<std::string> expected = {
      "secpol_reqs",
      "passed",
      "blocked",
      "check_cycles",
      "responses_gated",
      "violations.no_matching_segment",
      "violations.rw_violation",
      "violations.format_violation",
      "violations.integrity_failure",
      "violations.policy_lockdown",
      "violations.rate_limited",
      "passthrough",
      "protected_reads",
      "protected_writes",
      "lines_encrypted",
      "lines_decrypted",
      "read_modify_writes",
      "integrity_failures",
      "key_rotations",
      "cc.operations",
      "cc.bytes",
      "cc.cycles_charged",
      "ic.updates",
      "ic.verifies",
      "ic.failures",
      "ic.hash_invocations",
      "ic.cycles_charged",
      "ic.version_wraps",
  };
  EXPECT_EQ(names, expected);
  ASSERT_FALSE(positions.empty());
  EXPECT_EQ(positions.back() - positions.front() + 1, positions.size())
      << "the lcf_ddr keys are one contiguous block";
}

}  // namespace
}  // namespace secbus::core
