#include "soc/soc.hpp"

#include <gtest/gtest.h>

#include "soc/presets.hpp"

namespace secbus::soc {
namespace {

TEST(AddressPlan, WindowsAreDisjointAndInsideMemories) {
  const SocConfig cfg = section5_config();
  const AddressPlan plan = AddressPlan::from_config(cfg);

  EXPECT_EQ(plan.bram_scratch.base, cfg.bram_base);
  EXPECT_EQ(plan.bram_scratch.size + plan.bram_boot.size, cfg.bram_size);
  ASSERT_EQ(plan.cpu_windows.size(), 3u);
  for (std::size_t i = 0; i < plan.cpu_windows.size(); ++i) {
    const auto& w = plan.cpu_windows[i];
    EXPECT_GE(w.base, cfg.ddr_protected_base);
    EXPECT_LE(w.base + w.size,
              cfg.ddr_protected_base + cfg.ddr_protected_size);
    if (i > 0) {
      EXPECT_EQ(w.base, plan.cpu_windows[i - 1].base + plan.cpu_windows[i - 1].size);
    }
  }
  EXPECT_EQ(plan.ddr_scratch.base, cfg.ddr_base + cfg.ddr_protected_size);
  EXPECT_EQ(plan.ddr_scratch.base + plan.ddr_scratch.size,
            cfg.ddr_base + cfg.ddr_size);
}

TEST(Soc, BenignWorkloadCompletesWithoutAlerts) {
  SocConfig cfg = tiny_test_config();
  Soc soc(cfg);
  const SocResults r = soc.run(2'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.transactions_failed, 0u);
  EXPECT_EQ(r.transactions_ok, cfg.transactions_per_cpu);
  EXPECT_EQ(r.alerts, 0u);
  EXPECT_GT(r.bytes_moved, 0u);
  EXPECT_GT(r.bus_occupancy, 0.0);
}

TEST(Soc, Section5SystemRuns) {
  SocConfig cfg = section5_config();
  cfg.transactions_per_cpu = 60;  // keep the test fast
  Soc soc(cfg);
  const SocResults r = soc.run(3'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.alerts, 0u);
  EXPECT_EQ(r.transactions_ok, 3 * 60u);
  // All three CPU firewalls saw traffic (the DMA is idle without a job, so
  // its firewall legitimately stays quiet).
  for (std::size_t i = 0; i < cfg.processors; ++i) {
    const auto& fw = soc.master_firewalls()[i];
    EXPECT_GT(fw->stats().secpol_reqs, 0u) << fw->name();
  }
  for (const auto& fw : soc.master_firewalls()) {
    EXPECT_EQ(fw->stats().blocked, 0u) << fw->name();
  }
  // The LCF carried protected traffic.
  ASSERT_NE(soc.lcf(), nullptr);
  EXPECT_GT(soc.lcf()->stats().protected_reads +
                soc.lcf()->stats().protected_writes,
            0u);
}

TEST(Soc, UnsecuredModeHasNoFirewalls) {
  SocConfig cfg = tiny_test_config();
  cfg.security = SecurityMode::kNone;
  Soc soc(cfg);
  EXPECT_EQ(soc.lcf(), nullptr);
  EXPECT_EQ(soc.bram_firewall(), nullptr);
  EXPECT_TRUE(soc.master_firewalls().empty());
  const SocResults r = soc.run(1'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.alerts, 0u);
}

TEST(Soc, CentralizedModeUsesManager) {
  SocConfig cfg = tiny_test_config();
  cfg.security = SecurityMode::kCentralized;
  Soc soc(cfg);
  ASSERT_NE(soc.manager(), nullptr);
  const SocResults r = soc.run(2'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(soc.manager()->checks_served(), 0u);
}

TEST(Soc, SecurityAddsLatency) {
  SocConfig cfg = tiny_test_config();
  cfg.security = SecurityMode::kNone;
  Soc unsecured(cfg);
  const SocResults r_none = unsecured.run(2'000'000);

  cfg.security = SecurityMode::kDistributed;
  Soc secured(cfg);
  const SocResults r_dist = secured.run(2'000'000);

  ASSERT_TRUE(r_none.completed);
  ASSERT_TRUE(r_dist.completed);
  // Firewalls add per-access latency, so the protected run is slower.
  EXPECT_GT(r_dist.avg_access_latency, r_none.avg_access_latency);
  EXPECT_GT(r_dist.cycles, r_none.cycles);
}

TEST(Soc, ProtectionLevelOrdersExternalCost) {
  auto run_with = [](ProtectionLevel level) {
    SocConfig cfg = tiny_test_config();
    cfg.protection = level;
    cfg.external_fraction = 0.8;  // stress the external path
    Soc soc(cfg);
    return soc.run(4'000'000);
  };
  const SocResults plain = run_with(ProtectionLevel::kPlaintext);
  const SocResults cipher = run_with(ProtectionLevel::kCipherOnly);
  const SocResults full = run_with(ProtectionLevel::kFull);
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(cipher.completed);
  ASSERT_TRUE(full.completed);
  EXPECT_LT(plain.avg_access_latency, cipher.avg_access_latency);
  EXPECT_LT(cipher.avg_access_latency, full.avg_access_latency);
}

TEST(Soc, DmaJobRunsThroughFirewalls) {
  SocConfig cfg = tiny_test_config();
  cfg.dedicated_ip = true;
  Soc soc(cfg);
  const auto& plan = soc.plan();
  // Stage data in BRAM scratch, DMA-copy it into the shared-code window...
  // the DMA policy allows bram_scratch and shared_code, so use those.
  const std::vector<std::uint8_t> payload(64, 0xC3);
  soc.bram().store().write(plan.bram_scratch.base + 0x100,
                           {payload.data(), payload.size()});
  soc.start_dma(ip::DmaEngine::Job{plan.bram_scratch.base + 0x100,
                                   plan.bram_scratch.base + 0x2000, 64, 8});
  const SocResults r = soc.run(2'000'000);
  EXPECT_TRUE(r.completed);
  ASSERT_NE(soc.dma(), nullptr);
  EXPECT_EQ(soc.dma()->stats().errors, 0u);
  EXPECT_EQ(soc.dma()->stats().bytes_copied, 64u);
  std::vector<std::uint8_t> copied(64);
  soc.bram().store().read(plan.bram_scratch.base + 0x2000,
                          {copied.data(), copied.size()});
  EXPECT_EQ(copied, payload);
}

TEST(Soc, DmaIntoProtectedRegionThroughLcf) {
  // The DMA loads the shared-code window (inside the LCF's protected
  // range): bursts must flow through rule check + CC + IC and read back
  // intact, with ciphertext (not plaintext) in the DDR cells.
  SocConfig cfg = tiny_test_config();
  cfg.dedicated_ip = true;
  Soc soc(cfg);
  const auto& plan = soc.plan();

  std::vector<std::uint8_t> image(128);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }
  soc.bram().store().write(plan.bram_scratch.base + 0x400,
                           {image.data(), image.size()});
  soc.start_dma(ip::DmaEngine::Job{plan.bram_scratch.base + 0x400,
                                   plan.shared_code.base, 128, 8});
  const SocResults r = soc.run(5'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(soc.dma()->stats().errors, 0u);
  EXPECT_EQ(r.alerts, 0u);

  // DDR cells hold ciphertext...
  std::vector<std::uint8_t> raw(128);
  soc.ddr().store().peek(plan.shared_code.base, {raw.data(), raw.size()});
  EXPECT_NE(raw, image);

  // ... and a read through the LCF returns the plaintext image.
  auto readback = bus::make_read(0, plan.shared_code.base,
                                 bus::DataFormat::kWord, 32);
  ASSERT_NE(soc.lcf(), nullptr);
  const auto result = soc.ddr_firewall()->access(readback, soc.kernel().now());
  EXPECT_EQ(result.status, bus::TransStatus::kOk);
  EXPECT_EQ(readback.data, image);
  EXPECT_GT(soc.lcf()->stats().lines_encrypted, 0u);
}

TEST(Soc, ScriptedMasterIntegrates) {
  SocConfig cfg = tiny_test_config();
  Soc soc(cfg);
  const auto& plan = soc.plan();
  core::PolicyBuilder pb(0x700);
  pb.allow(plan.bram_scratch.base, plan.bram_scratch.size,
           core::RwAccess::kReadWrite, core::FormatMask::kAll, "scratch");
  auto& master = soc.add_scripted_master("probe", pb.build());
  master.enqueue_write(0, plan.bram_scratch.base + 64, {1, 2, 3, 4});
  master.enqueue_read(10, plan.bram_scratch.base + 64);
  const SocResults r = soc.run(2'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(master.stats().ok, 2u);
  EXPECT_EQ(master.stats().responses.back().data,
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

// Never wakes and never finishes, like a master waiting for a response
// that will not come.
class StuckMaster final : public ip::Master {
 public:
  StuckMaster() : Master("stuck", 0) {}
  void tick(sim::Cycle /*now*/) override {}
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle /*now*/) const override {
    return sim::kNeverCycle;
  }
  [[nodiscard]] bool done() const noexcept override { return false; }
};

TEST(Soc, GoingIdleWithAnUnfinishedMasterIsNotCompleting) {
  constexpr sim::Cycle kCap = 2'000'000;
  std::vector<sim::Cycle> stopped_at;
  for (const bool lockstep : {true, false}) {
    sim::set_lockstep_for_testing(lockstep);
    StuckMaster stuck;
    SocConfig cfg = tiny_test_config();
    Soc soc(cfg);
    soc.attach_custom_master(stuck, soc.cpu_policy(0));
    const SocResults r = soc.run(kCap);
    sim::set_lockstep_for_testing(false);
    // The processors finish and the kernel goes idle, far below the cap.
    EXPECT_FALSE(r.completed) << "lockstep=" << lockstep;
    EXPECT_EQ(r.transactions_ok, cfg.processors * cfg.transactions_per_cpu);
    EXPECT_LT(r.cycles, kCap / 10) << "lockstep=" << lockstep;
    stopped_at.push_back(r.cycles);
  }
  EXPECT_EQ(stopped_at[0], stopped_at[1]);
}

TEST(Soc, PolicyAccessorsDescribePlan) {
  SocConfig cfg = section5_config();
  Soc soc(cfg);
  const auto p0 = soc.cpu_policy(0);
  EXPECT_EQ(p0.rule_count(), 5u);
  EXPECT_EQ(p0.cm, core::ConfidentialityMode::kBypass);  // LFs don't cipher
  const auto lcf_p = soc.lcf_policy();
  EXPECT_EQ(lcf_p.cm, core::ConfidentialityMode::kCipher);
  EXPECT_EQ(lcf_p.im, core::IntegrityMode::kHashTree);
  const auto dma_p = soc.dma_policy();
  EXPECT_EQ(dma_p.rule_count(), 3u);
}

TEST(Soc, ExtraRulesGrowPolicies) {
  SocConfig cfg = tiny_test_config();
  cfg.extra_rules = 6;
  Soc soc(cfg);
  EXPECT_EQ(soc.cpu_policy(0).rule_count(), 5u + 6u);
  // Extra rules raise the SB check latency (12 + ceil((11-4)/2) = 16).
  const SocResults r = soc.run(2'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.alerts, 0u);  // dummy rules never match: no false positives
}

TEST(Soc, TraceCapturesFirewallActivity) {
  SocConfig cfg = tiny_test_config();
  cfg.trace_capacity = 4096;
  cfg.transactions_per_cpu = 20;
  Soc soc(cfg);
  (void)soc.run(1'000'000);
  EXPECT_GT(soc.trace().count_of(sim::TraceKind::kSecpolReq), 0u);
  EXPECT_GT(soc.trace().count_of(sim::TraceKind::kTransOnBus), 0u);
  EXPECT_GT(soc.trace().count_of(sim::TraceKind::kCipherOp) +
                soc.trace().count_of(sim::TraceKind::kIntegrityOp),
            0u);
}

}  // namespace
}  // namespace secbus::soc
