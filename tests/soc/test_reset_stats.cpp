// Soc::reset_stats() must zero every component's accounting — including the
// Processor / DMA / DDR / ScriptedMaster / centralized-firewall structs that
// historically lacked a reset — without disturbing simulation state (kernel
// time, memory contents, security policy, the event trace).
#include "soc/soc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "soc/presets.hpp"

namespace secbus::soc {
namespace {

obs::Registry snap(const Soc& soc) {
  obs::Registry reg;
  soc.snapshot_metrics(reg);
  return reg;
}

TEST(ResetStats, ZeroesDistributedComponentCounters) {
  SocConfig cfg = tiny_test_config();
  cfg.transactions_per_cpu = 50;
  Soc soc(cfg);
  const SocResults r = soc.run(2'000'000);
  ASSERT_TRUE(r.completed);

  const obs::Registry before = snap(soc);
  // The run left real accounting behind in every layer.
  EXPECT_GT(before.counter_value("bus.seg0.transactions"), 0u);
  EXPECT_GT(before.counter_value("ip.cpu0.issued"), 0u);
  EXPECT_GT(before.counter_value("ip.cpu0.latency.count"), 0u);
  EXPECT_GT(before.counter_value("core.lf_cpu0.secpol_reqs"), 0u);
  EXPECT_GT(before.counter_value("mem.ddr.reads") +
                before.counter_value("mem.ddr.writes"),
            0u);

  soc.reset_stats();
  const obs::Registry after = snap(soc);

  EXPECT_EQ(after.counter_value("bus.seg0.transactions"), 0u);
  EXPECT_EQ(after.counter_value("bus.seg0.busy_cycles"), 0u);
  EXPECT_EQ(after.counter_value("ip.cpu0.issued"), 0u);
  EXPECT_EQ(after.counter_value("ip.cpu0.bytes_moved"), 0u);
  EXPECT_EQ(after.counter_value("ip.cpu0.latency.count"), 0u);
  EXPECT_EQ(after.counter_value("core.lf_cpu0.secpol_reqs"), 0u);
  EXPECT_EQ(after.counter_value("core.lf_cpu0.passed"), 0u);
  EXPECT_EQ(after.counter_value("mem.ddr.reads"), 0u);
  EXPECT_EQ(after.counter_value("mem.ddr.writes"), 0u);

  // Simulation state is untouched: kernel time keeps advancing from where
  // the run ended, and the trace accounting is not part of the reset.
  EXPECT_EQ(after.counter_value("soc.cycles"),
            before.counter_value("soc.cycles"));
  EXPECT_EQ(after.counter_value("trace.total"),
            before.counter_value("trace.total"));
}

TEST(ResetStats, ZeroesCentralizedGateAndManagerCounters) {
  SocConfig cfg = tiny_test_config();
  cfg.security = SecurityMode::kCentralized;
  cfg.transactions_per_cpu = 50;
  Soc soc(cfg);
  const SocResults r = soc.run(2'000'000);
  ASSERT_TRUE(r.completed);

  const obs::Registry before = snap(soc);
  EXPECT_GT(before.counter_value("core.manager.checks_served"), 0u);
  EXPECT_GT(before.counter_value("core.gate_cpu0.secpol_reqs"), 0u);

  soc.reset_stats();
  const obs::Registry after = snap(soc);
  EXPECT_EQ(after.counter_value("core.manager.checks_served"), 0u);
  EXPECT_EQ(after.counter_value("core.manager.queue_wait.count"), 0u);
  EXPECT_EQ(after.counter_value("core.gate_cpu0.secpol_reqs"), 0u);
  EXPECT_EQ(after.counter_value("core.gate_cpu0.passed"), 0u);
}

TEST(ResetStats, ZeroesDmaCounters) {
  SocConfig cfg = tiny_test_config();
  cfg.dedicated_ip = true;
  Soc soc(cfg);
  const auto& plan = soc.plan();
  const std::vector<std::uint8_t> payload(64, 0xC3);
  soc.bram().store().write(plan.bram_scratch.base + 0x100,
                           {payload.data(), payload.size()});
  soc.start_dma(ip::DmaEngine::Job{plan.bram_scratch.base + 0x100,
                                   plan.bram_scratch.base + 0x2000, 64, 8});
  const SocResults r = soc.run(2'000'000);
  ASSERT_TRUE(r.completed);

  EXPECT_EQ(snap(soc).counter_value("ip.dma.bytes_copied"), 64u);
  soc.reset_stats();
  const obs::Registry after = snap(soc);
  EXPECT_EQ(after.counter_value("ip.dma.bytes_copied"), 0u);
  EXPECT_EQ(after.counter_value("ip.dma.bursts"), 0u);
}

}  // namespace
}  // namespace secbus::soc
