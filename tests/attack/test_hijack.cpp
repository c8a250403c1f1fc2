// Hijacked-IP scenarios: a compromised internal master must be stopped in
// its own Local Firewall, never reaching the bus (Section III.C containment).
#include <gtest/gtest.h>

#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace secbus::scenario {
namespace {

// run_scenario's escalating probe script: two writes into the read-only boot
// segment, a read of an address no segment covers, a byte read where only
// 32-bit beats are allowed, then two legal scratchpad accesses. Every probe
// is discarded in the hijacked IP's own LF with its own violation kind; the
// legal accesses still flow.
TEST(Hijack, EscalatingProbesAreDetectedAndContained) {
  ScenarioSpec spec;
  spec.name = "hijack";
  spec.soc = soc::tiny_test_config();
  spec.soc.seed = 42;
  spec.soc.transactions_per_cpu = 40;
  spec.attack.kind = AttackKind::kHijack;
  spec.max_cycles = 200'000;
  const JobResult r = run_scenario(spec);

  EXPECT_TRUE(r.attack_ran);
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.containment_checked);
  EXPECT_TRUE(r.contained) << "attack traffic reached the bus";
  EXPECT_EQ(r.violation_count(core::Violation::kRwViolation), 2u);
  EXPECT_EQ(r.violation_count(core::Violation::kNoMatchingSegment), 1u);
  EXPECT_EQ(r.violation_count(core::Violation::kFormatViolation), 1u);
  EXPECT_EQ(r.fw_blocked, 4u);  // the four probes, nothing benign
  EXPECT_EQ(r.soc.alerts, 4u);  // one alert per probe
  EXPECT_TRUE(r.soc.completed) << "benign workload must survive";
}

TEST(Hijack, ContainmentMeansZeroBusGrants) {
  // Stronger form of the scenario's containment check (which tolerates the
  // script's legal grants), checked directly on the SoC.
  soc::SocConfig cfg = soc::tiny_test_config();
  soc::Soc soc(cfg);
  auto& mal = soc.add_scripted_master("hijacked", soc.cpu_policy(0));
  const auto& plan = soc.plan();
  for (int i = 0; i < 5; ++i) {
    mal.enqueue_write(10, plan.bram_boot.base, {1, 2, 3, 4});
  }
  (void)soc.run(1'000'000);

  for (const auto& ms : soc.bus().master_stats()) {
    if (ms.name == "hijacked") {
      EXPECT_EQ(ms.grants, 0u);
    }
  }
  EXPECT_EQ(mal.stats().violations, 5u);
  EXPECT_EQ(soc.log().count_for(
                static_cast<core::FirewallId>(soc::kMasterScriptedBase)),
            5u);
}

TEST(Hijack, LegalTrafficFromSameMasterStillFlows) {
  // The firewall discards only violating transactions; the same master's
  // in-policy accesses keep working (no blanket kill without reconfig).
  soc::SocConfig cfg = soc::tiny_test_config();
  soc::Soc soc(cfg);
  auto& mal = soc.add_scripted_master("mixed", soc.cpu_policy(0));
  const auto& plan = soc.plan();
  mal.enqueue_write(0, plan.bram_scratch.base, {1, 2, 3, 4});   // legal
  mal.enqueue_write(5, plan.bram_boot.base, {9, 9, 9, 9});      // violation
  mal.enqueue_read(5, plan.bram_scratch.base);                  // legal
  (void)soc.run(1'000'000);
  EXPECT_EQ(mal.stats().ok, 2u);
  EXPECT_EQ(mal.stats().violations, 1u);
  EXPECT_EQ(mal.stats().responses.back().data,
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(Hijack, ReconfigLockdownIsolatesRepeatOffender) {
  // With the alert-driven responder enabled, a hijacked IP hammering its
  // firewall gets its policy swapped for lockdown; even previously legal
  // accesses are then discarded (the paper's reconfiguration perspective).
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.enable_reconfig = true;
  soc::Soc soc(cfg);
  auto& mal = soc.add_scripted_master("offender", soc.cpu_policy(0));
  const auto& plan = soc.plan();
  for (int i = 0; i < 4; ++i) {
    mal.enqueue_write(5, plan.bram_boot.base, {1, 2, 3, 4});  // violations
  }
  mal.enqueue_write(5, plan.bram_scratch.base, {5, 6, 7, 8});  // was legal
  (void)soc.run(1'000'000);

  ASSERT_NE(soc.reconfigurator(), nullptr);
  const auto fw_id = static_cast<core::FirewallId>(soc::kMasterScriptedBase);
  EXPECT_TRUE(soc.reconfigurator()->is_locked_down(fw_id));
  ASSERT_FALSE(soc.reconfigurator()->lockdowns().empty());
  // The final (legal-looking) write was discarded under lockdown.
  EXPECT_EQ(mal.stats().ok, 0u);
  EXPECT_EQ(mal.stats().violations, 5u);
  EXPECT_GT(soc.log().count_of(core::Violation::kPolicyLockdown), 0u);
}

TEST(Hijack, BenignProcessorsUnaffectedByLockdown) {
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.enable_reconfig = true;
  soc::Soc soc(cfg);
  auto& mal = soc.add_scripted_master("offender", soc.cpu_policy(0));
  for (int i = 0; i < 6; ++i) {
    mal.enqueue_read(5, 0xD000'0000ULL + 0x100ULL * static_cast<sim::Addr>(i));
  }
  const auto r = soc.run(2'000'000);
  EXPECT_TRUE(r.completed);
  // CPU0 finished its whole workload without a single failure.
  EXPECT_EQ(soc.processors().front()->stats().failed, 0u);
  EXPECT_EQ(soc.processors().front()->stats().completed,
            cfg.transactions_per_cpu);
}

}  // namespace
}  // namespace secbus::scenario
