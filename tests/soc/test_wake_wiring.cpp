// The wake-driven kernel leaves a component asleep until a notify reaches
// it, so a channel without a registered consumer would strand its reader
// forever. These tests walk the wiring of whole SoCs to make such a miss a
// named failure, and pin the host work of one fabric_star32 job exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "attack/flood_master.hpp"
#include "core/local_firewall.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace secbus {
namespace {

// The master-side firewall the SoC built for `master`: "lf_<master>" under
// distributed security, "gate_<master>" under centralized.
core::LocalFirewall* firewall_of(const soc::Soc& sys, const std::string& master) {
  for (const auto& fw : sys.master_firewalls()) {
    if (fw->name() == "lf_" + master || fw->name() == "gate_" + master) {
      return fw.get();
    }
  }
  return nullptr;
}

void expect_registered(const sim::Component* c, soc::Soc& sys,
                       const std::string& where) {
  ASSERT_NE(c, nullptr) << where << ": channel has no consumer";
  EXPECT_EQ(c->kernel(), &sys.kernel())
      << where << ": consumer " << c->name() << " is not registered";
}

class WiringAudit
    : public ::testing::TestWithParam<std::tuple<int, soc::SecurityMode>> {};

TEST_P(WiringAudit, EveryChannelHasARegisteredConsumer) {
  const auto [topology, security] = GetParam();
  // 0: flat, 1: star32 (32 CPUs on a 4-leaf star), 2: mesh 2x2.
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.processors = 3;
  if (topology == 1) cfg = soc::star32_config();
  if (topology == 2) cfg.topology = soc::TopologySpec::mesh(2, 2);
  cfg.dedicated_ip = true;
  cfg.security = security;

  // Custom masters must outlive the SoC's runs.
  attack::FloodMaster flood("flood", static_cast<sim::MasterId>(500),
                            attack::FloodMaster::Config{});
  soc::Soc sys(cfg);
  sys.add_scripted_master("scripted", sys.cpu_policy(0));
  sys.attach_custom_master(flood, sys.cpu_policy(0));

  std::vector<std::string> masters;
  for (std::size_t seg = 0; seg < sys.fabric().segment_count(); ++seg) {
    bus::SystemBus& bus = sys.fabric().segment(seg);
    for (std::size_t i = 0; i < bus.master_count(); ++i) {
      const std::string where =
          bus.name() + " master " + bus.master_stats()[i].name;
      const bus::MasterEndpoint& ep = bus.endpoint(i);
      EXPECT_EQ(ep.request.consumer(), &bus) << where << " request";
      const bus::TransactionChannel* responses = &ep.response;
      if (security == soc::SecurityMode::kNone) {
        EXPECT_EQ(ep.gate, nullptr) << where << ": gated without security";
      } else {
        // Behind its firewall (distributed or centralized): the bus
        // delivers responses through the firewall's gate into its IP side,
        // whose requests the firewall consumes, and the bus-side response
        // channel stays unused.
        core::LocalFirewall* fw = firewall_of(sys, bus.master_stats()[i].name);
        if (fw == nullptr) {
          ADD_FAILURE() << where << ": no firewall built for the master";
          continue;
        }
        expect_registered(fw, sys, where + " firewall");
        EXPECT_EQ(ep.gate, fw) << where << ": responses bypass its firewall";
        EXPECT_EQ(fw->ip_side().request.consumer(), fw) << where << " ip request";
        EXPECT_EQ(ep.response.consumer(), nullptr)
            << where << ": bus-side response channel has a consumer";
        responses = &fw->ip_side().response;
      }
      sim::Component* master = responses->consumer();
      expect_registered(master, sys, where + " response");
      if (master == nullptr) continue;
      EXPECT_EQ(master->name(), bus.master_stats()[i].name) << where;
      masters.push_back(master->name());
    }
  }
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < cfg.processors; ++i) {
    expected.push_back("cpu" + std::to_string(i));
  }
  expected.insert(expected.end(), {"dma", "scripted", "flood"});
  std::sort(masters.begin(), masters.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(masters, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Socs, WiringAudit,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(soc::SecurityMode::kNone,
                                         soc::SecurityMode::kDistributed,
                                         soc::SecurityMode::kCentralized)));

// Job 0 of the fabric_star32 benchmark workload (seed 1): 32 CPUs behind
// Local Firewalls on a 4-leaf star, 71 components. The polling kernel this
// one replaced dispatched 71 ticks on every stepped cycle: 327 878 in all.
TEST(WakeKernel, PinnedStar32JobHostWorkIsExact) {
  soc::SocConfig cfg = soc::star32_config();
  cfg.transactions_per_cpu = 30;
  cfg.seed = scenario::derive_seed(1, 0);
  soc::Soc sys(cfg);
  const soc::SocResults r = sys.run(30'000'000);
  ASSERT_TRUE(r.completed);
  const sim::SimKernel& k = sys.kernel();
  ASSERT_EQ(k.component_count(), 71u);
  EXPECT_EQ(r.transactions_ok + r.transactions_failed, 960u);
  EXPECT_EQ(k.now(), 120'479u);
  const std::uint64_t stepped = k.now() - k.cycles_skipped();
  EXPECT_EQ(stepped, 3'750u);
  // Five ticks per transaction: CPU issue, LF check start and finish, bus
  // grant and completion. The response passes the LF at a delivery cycle,
  // without a tick, and the CPU takes it in the tick that issues its next
  // request; only each CPU's last response gets a tick of its own (32).
  EXPECT_EQ(k.ticks_dispatched(), 4'832u);
  EXPECT_LE(k.ticks_dispatched(), 10 * stepped);
  EXPECT_LE(k.wake_reads(), 2 * k.ticks_dispatched());
}

}  // namespace
}  // namespace secbus
