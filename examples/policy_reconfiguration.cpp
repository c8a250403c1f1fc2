// Runtime security-service reconfiguration — the paper's Section-VI
// perspective, implemented:
//
//   "We also plan to integrate reconfiguration of security services (i.e.
//    modification of security policies) to counter some attacks against
//    the system."
//
// Demonstrates two reconfiguration mechanisms:
//   1. alert-driven lockdown: a repeat-offender IP gets its policy swapped
//      for a deny-all lockdown after 3 alerts inside a 1000-cycle window,
//      then an operator releases it;
//   2. LCF key rotation: the external memory is re-encrypted under a fresh
//      CK without losing contents, and the one-off cycle cost is reported.
//
//   $ ./policy_reconfiguration
#include <cstdio>

#include "soc/presets.hpp"
#include "soc/soc.hpp"

using namespace secbus;

int main() {
  soc::SocConfig cfg = soc::section5_config();
  cfg.transactions_per_cpu = 200;
  cfg.enable_reconfig = true;  // the alert-driven responder
  soc::Soc system(cfg);
  const auto& plan = system.plan();

  // --- Part 1: alert-driven lockdown -----------------------------------
  auto& offender = system.add_scripted_master("offender", system.cpu_policy(0));
  for (int i = 0; i < 4; ++i) {
    offender.enqueue_write(20, plan.bram_boot.base, {1, 2, 3, 4});  // RO!
  }
  // After lockdown this previously-legal access must also be discarded.
  offender.enqueue_write(20, plan.bram_scratch.base, {5, 6, 7, 8});

  const auto results = system.run(10'000'000);

  const auto offender_fw =
      static_cast<core::FirewallId>(soc::kMasterScriptedBase);
  std::printf("Offender issued %llu transactions; %llu discarded.\n",
              static_cast<unsigned long long>(offender.stats().issued),
              static_cast<unsigned long long>(offender.stats().violations));
  for (const auto& event : system.reconfigurator()->lockdowns()) {
    std::printf(
        "Lockdown: firewall %u isolated at cycle %llu after %zu alerts in "
        "the window\n",
        event.firewall, static_cast<unsigned long long>(event.cycle),
        event.alerts_in_window);
  }
  std::printf("Offender locked down: %s; lockdown violations logged: %zu\n",
              system.reconfigurator()->is_locked_down(offender_fw) ? "yes"
                                                                   : "no",
              system.log().count_of(core::Violation::kPolicyLockdown));

  // Operator intervention: restore the saved policy.
  system.reconfigurator()->release(offender_fw);
  std::printf("After release: locked down = %s\n",
              system.reconfigurator()->is_locked_down(offender_fw) ? "yes"
                                                                   : "no");

  // --- Part 2: LCF key rotation ----------------------------------------
  auto* lcf = system.lcf();
  if (lcf != nullptr) {
    // Write a known value through the LCF, rotate the key, read it back.
    core::SlaveFirewall& lcf_fw = *system.ddr_firewall();
    const sim::Addr probe = plan.shared_code.base;
    auto w = bus::make_write(0, probe, {0x5E, 0xC5, 0xE7, 0x00});
    (void)lcf_fw.access(w, system.kernel().now());

    crypto::Aes128Key fresh_key{};
    for (std::size_t i = 0; i < fresh_key.size(); ++i) {
      fresh_key[i] = static_cast<std::uint8_t>(0x30 + i);
    }
    const sim::Cycle cost = lcf->rotate_key(fresh_key);
    std::printf(
        "\nLCF key rotation: %llu lines re-encrypted under the new CK, "
        "one-off cost %llu cycles (%.2f ms at 100 MHz)\n",
        static_cast<unsigned long long>(lcf->ic().line_count()),
        static_cast<unsigned long long>(cost),
        cfg.clock.cycles_to_us(cost) / 1000.0);

    auto r = bus::make_read(0, probe);
    (void)lcf_fw.access(r, system.kernel().now());
    const bool intact = r.data == std::vector<std::uint8_t>{0x5E, 0xC5, 0xE7, 0x00};
    std::printf("Contents preserved across rotation: %s\n",
                intact ? "yes" : "NO");
    if (!intact) return 1;
  }

  std::printf("\nBenign workload completed: %s\n",
              results.completed ? "yes" : "no");
  return results.completed ? 0 : 1;
}
