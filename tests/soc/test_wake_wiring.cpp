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

// The IP-facing endpoint of a firewall (distributed or centralized), or
// null for a plain master.
const bus::MasterEndpoint* ip_side_of(sim::Component* c) {
  if (auto* fw = dynamic_cast<core::LocalFirewall*>(c)) return &fw->ip_side();
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
      sim::Component* next = ep.response.consumer();
      expect_registered(next, sys, where + " response");
      if (next == nullptr) continue;
      // Behind a firewall: its IP side has two more channels.
      if (const bus::MasterEndpoint* ip = ip_side_of(next)) {
        EXPECT_EQ(ip->request.consumer(), next) << where << " ip request";
        next = ip->response.consumer();
        expect_registered(next, sys, where + " ip response");
        if (next == nullptr) continue;
      }
      masters.push_back(next->name());
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
  EXPECT_EQ(stepped, 4'618u);
  // Seven ticks per transaction: CPU issue, LF check start and finish, bus
  // grant and completion, LF response, CPU response.
  EXPECT_EQ(k.ticks_dispatched(), 6'720u);
  EXPECT_LE(k.ticks_dispatched(), 10 * stepped);
  EXPECT_LE(k.wake_reads(), 2 * k.ticks_dispatched());
}

}  // namespace
}  // namespace secbus
