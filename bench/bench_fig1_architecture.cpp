// Reproduces Figure 1 — the distributed architecture with security
// enhancements — as an executable artifact.
//
// Figure 1 is a block diagram: IPs behind Local Firewalls, the external
// memory behind the Local Ciphering Firewall, and the LF-internal wiring
// (LFCB -> secpol_req -> SB -> check_results -> FI, alert_signals out).
// This bench instantiates exactly that system, runs the Section-V workload,
// and reports the per-firewall signal activity: every secpol_req, every
// check_result, every alert — the live counterpart of the diagram's wires.
#include <cstdio>

#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/table.hpp"

using namespace secbus;

int main() {
  std::puts("=== bench_fig1_architecture: Figure 1 system, live ===\n");

  soc::SocConfig cfg = soc::section5_config();
  cfg.transactions_per_cpu = 200;
  cfg.trace_capacity = 64;
  soc::Soc system(cfg);

  std::puts("Architecture (Figure 1 wiring):");
  std::printf("  system bus <- LF -> cpu0, cpu1, cpu2 (MicroBlaze models)\n");
  std::printf("  system bus <- LF -> dma (dedicated IP)\n");
  std::printf("  system bus <- LF -> bram (internal shared memory)\n");
  std::printf("  system bus <- LCF -> ddr (external memory, CC+IC inside)\n\n");

  const auto results = system.run(5'000'000);
  std::printf("Ran %llu cycles (%.2f ms at 100 MHz), %llu transactions, "
              "bus occupancy %.1f%%\n\n",
              static_cast<unsigned long long>(results.cycles),
              cfg.clock.cycles_to_us(results.cycles) / 1000.0,
              static_cast<unsigned long long>(results.transactions_ok),
              100.0 * results.bus_occupancy);

  util::TextTable table("Per-firewall signal activity (Figure 1 wires)");
  table.set_header({"Firewall", "secpol_req", "check_results pass",
                    "FI discards", "alert_signals", "check cycles"});
  auto add_fw_row = [&table](const std::string& name,
                             const core::FirewallStats& s) {
    table.add_row({name, std::to_string(s.secpol_reqs),
                   std::to_string(s.passed), std::to_string(s.blocked),
                   std::to_string(s.blocked),  // alerts pulse on discard
                   std::to_string(s.check_cycles)});
  };
  for (const auto& fw : system.master_firewalls()) {
    add_fw_row(fw->name(), fw->stats());
  }
  for (const core::SlaveFirewall* fw :
       {system.bram_firewall(), system.ddr_firewall()}) {
    if (fw != nullptr) add_fw_row(std::string(fw->slave_name()), fw->stats());
  }
  table.print();

  if (system.lcf() != nullptr) {
    const auto& lcf = *system.lcf();
    std::printf(
        "\nLCF internals: %llu protected reads, %llu protected writes,\n"
        "%llu lines encrypted, %llu lines decrypted, %llu RMW assemblies,\n"
        "CC charged %llu cycles, IC charged %llu cycles, %llu hash ops.\n",
        static_cast<unsigned long long>(lcf.stats().protected_reads),
        static_cast<unsigned long long>(lcf.stats().protected_writes),
        static_cast<unsigned long long>(lcf.stats().lines_encrypted),
        static_cast<unsigned long long>(lcf.stats().lines_decrypted),
        static_cast<unsigned long long>(lcf.stats().read_modify_writes),
        static_cast<unsigned long long>(lcf.cc().stats().cycles_charged),
        static_cast<unsigned long long>(lcf.ic().stats().cycles_charged),
        static_cast<unsigned long long>(lcf.ic().stats().hash_invocations));
  }

  std::puts("\nLast trace events (secpol_req / check_result / cipher wires):");
  std::fputs(system.trace().format(16).c_str(), stdout);

  std::printf("\nBenign workload: %llu alerts (expected 0).\n",
              static_cast<unsigned long long>(results.alerts));
  return results.alerts == 0 ? 0 : 1;
}
