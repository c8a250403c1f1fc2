#include "baseline/centralized.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "bus/system_bus.hpp"
#include "core/local_firewall.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

namespace secbus::baseline {
namespace {

using core::ConfigurationMemory;
using core::PolicyBuilder;
using core::RwAccess;

ConfigurationMemory make_config() {
  ConfigurationMemory mem;
  for (core::FirewallId id : {1u, 2u, 3u}) {
    mem.install(id, PolicyBuilder(id)
                        .allow(0x0000, 0x800, RwAccess::kReadWrite)
                        .allow(0x0800, 0x800, RwAccess::kReadOnly)
                        .build());
  }
  return mem;
}

const bus::BusTransaction kRead = bus::make_read(0, 0x10);

TEST(CentralizedManager, UncontendedLatency) {
  ConfigurationMemory mem = make_config();
  CentralizedManager mgr(mem, 12);
  const auto verdict = mgr.check(1, kRead, 100);
  EXPECT_TRUE(verdict.decision.allowed);
  // wire(2) + check(12) + wire(2).
  EXPECT_EQ(verdict.latency, 16u);
  EXPECT_EQ(mgr.queue_wait().max(), 0.0);
}

TEST(CentralizedManager, DecisionsMatchPolicies) {
  ConfigurationMemory mem = make_config();
  CentralizedManager mgr(mem);
  const auto denied =
      mgr.check(1, bus::make_write(0, 0x900, {1, 2, 3, 4}), 0);
  EXPECT_FALSE(denied.decision.allowed);
  EXPECT_EQ(denied.decision.violation, core::Violation::kRwViolation);
}

TEST(CentralizedManager, ConcurrentChecksQueue) {
  ConfigurationMemory mem = make_config();
  CentralizedManager mgr(mem, 12);
  // Three interfaces submit in the same cycle: the manager serializes, so
  // the second waits 12 cycles and the third 24.
  const auto o1 = mgr.check(1, kRead, 0);
  const auto o2 = mgr.check(2, kRead, 0);
  const auto o3 = mgr.check(3, kRead, 0);
  EXPECT_EQ(o1.latency, 16u);
  EXPECT_EQ(o2.latency, 28u);
  EXPECT_EQ(o3.latency, 40u);
  EXPECT_EQ(mgr.checks_served(), 3u);
  EXPECT_EQ(mgr.queue_wait().mean(), 12.0);
  EXPECT_EQ(mgr.queue_wait().max(), 24.0);
}

TEST(CentralizedManager, EngineFreesUpOverTime) {
  ConfigurationMemory mem = make_config();
  CentralizedManager mgr(mem, 12);
  (void)mgr.check(1, kRead, 0);
  // Next arrival after the engine drained: no queueing.
  const auto later = mgr.check(2, kRead, 50);
  EXPECT_EQ(later.latency, 16u);
  EXPECT_EQ(mgr.queue_wait().max(), 0.0);
}

TEST(CentralizedManager, ResetClearsState) {
  ConfigurationMemory mem = make_config();
  CentralizedManager mgr(mem);
  (void)mgr.check(1, kRead, 0);
  mgr.reset();
  EXPECT_EQ(mgr.checks_served(), 0u);
  EXPECT_EQ(mgr.busy_until(), 0u);
}

// A master-side firewall that asks the manager, in front of a real bus.
struct CentralizedMasterFixture : public ::testing::Test {
  void SetUp() override {
    config_mem = make_config();
    manager = std::make_unique<CentralizedManager>(config_mem, 12);
    bus_obj = std::make_unique<bus::SystemBus>("bus");
    const auto sid = bus_obj->add_slave(bram);
    bus_obj->map_region(0x0000, 0x1000, sid, "bram");
    fw = std::make_unique<core::LocalFirewall>("gate_m0", 1, *manager, log);
    fw->connect_bus(bus_obj->attach_master(0, "m0"));
    kernel.add(*fw);
    kernel.add(*bus_obj);
  }

  sim::SimKernel kernel;
  ConfigurationMemory config_mem;
  core::SecurityEventLog log;
  std::unique_ptr<CentralizedManager> manager;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  std::unique_ptr<bus::SystemBus> bus_obj;
  std::unique_ptr<core::LocalFirewall> fw;
};

TEST_F(CentralizedMasterFixture, AllowedTransactionFlowsThrough) {
  bus::BusTransaction t = bus::make_write(0, 0x100, {1, 2, 3, 4});
  t.issued_at = 0;
  fw->ip_side().request.push(std::move(t));
  EXPECT_TRUE(kernel.run_until_idle(200));
  ASSERT_FALSE(fw->ip_side().response.empty());
  EXPECT_EQ(fw->ip_side().response.take().status, bus::TransStatus::kOk);
  EXPECT_EQ(fw->stats().passed, 1u);
  EXPECT_EQ(fw->stats().check_cycles, 16u);
  EXPECT_EQ(manager->checks_served(), 1u);
  EXPECT_EQ(fw->builder(), nullptr);
  EXPECT_EQ(bram.writes(), 1u);
}

TEST_F(CentralizedMasterFixture, DeniedTransactionBlockedWithAlert) {
  bus::BusTransaction t = bus::make_write(0, 0x900, {1, 2, 3, 4});
  fw->ip_side().request.push(std::move(t));
  EXPECT_TRUE(kernel.run_until_idle(200));
  ASSERT_FALSE(fw->ip_side().response.empty());
  EXPECT_EQ(fw->ip_side().response.take().status,
            bus::TransStatus::kSecurityViolation);
  EXPECT_EQ(log.count(), 1u);
  EXPECT_EQ(fw->stats().blocked, 1u);
  EXPECT_EQ(bus_obj->stats().transactions, 0u);  // contained as well
}

TEST(CentralizedSlaveFirewall, DecoratesDeviceWithCentralCheck) {
  ConfigurationMemory mem = make_config();
  core::SecurityEventLog log;
  CentralizedManager mgr(mem, 12);
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  core::SlaveFirewall fw("gate_bram", 2, mgr, log, bram);

  auto ok = bus::make_write(0, 0x100, {1, 2, 3, 4});
  EXPECT_EQ(fw.access(ok, 0).status, bus::TransStatus::kOk);

  auto bad = bus::make_write(0, 0x900, {1, 2, 3, 4});
  EXPECT_EQ(fw.access(bad, 50).status, bus::TransStatus::kSecurityViolation);
  EXPECT_EQ(bram.writes(), 1u);
  EXPECT_EQ(log.count(), 1u);
  EXPECT_EQ(fw.stats().passed, 1u);
  EXPECT_EQ(fw.stats().blocked, 1u);
}

// Exact cycles of the one firewall class under each verdict source, L being
// the check latency: a request popped at cycle c leaves the master-side
// firewall at c + L - 1 under its own SB (the check's first cycle is the
// request cycle) and at c + L under the manager (L = 12 + 2 x 2 wire; the
// verdict is acted on in the cycle it arrives). The slave side charges L
// either way.
struct VerdictTiming : public ::testing::Test {
  // Pushes `t`, ticks `fw` cycle by cycle from `c` (the pop) and returns
  // the cycle the transaction left: onto the bus or, denied, back to the
  // IP. Also checks that the wake reported after the pop is that cycle.
  sim::Cycle leave_cycle(core::LocalFirewall& fw, bus::BusTransaction t,
                         sim::Cycle c) {
    bus_ep.clear();
    fw.ip_side().request.push(std::move(t));
    std::optional<sim::Cycle> wake;
    for (sim::Cycle now = c; now < c + 100; ++now) {
      fw.tick(now);
      if (!bus_ep.request.empty() || !fw.ip_side().response.empty()) {
        if (wake.has_value()) {
          EXPECT_EQ(*wake, now);
        }
        if (!fw.ip_side().response.empty()) {
          EXPECT_EQ(fw.ip_side().response.take().completed_at, now);
        }
        return now;
      }
      if (!wake.has_value()) wake = fw.next_wake(now + 1);
    }
    ADD_FAILURE() << "transaction never left the firewall";
    return sim::kNeverCycle;
  }

  ConfigurationMemory config_mem = make_config();
  core::SecurityEventLog log;
  CentralizedManager manager{config_mem, 12};
  bus::MasterEndpoint bus_ep;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
};

TEST_F(VerdictTiming, LocalSbActsOnTheCheckLastCycle) {
  core::LocalFirewall fw("lf_m0", 1, config_mem, log);
  fw.connect_bus(bus_ep);
  EXPECT_EQ(leave_cycle(fw, bus::make_read(0, 0x100), 40), 40u + 12u - 1u);
  EXPECT_EQ(leave_cycle(fw, bus::make_write(0, 0x900, {1, 2, 3, 4}), 60),
            60u + 12u - 1u);
  EXPECT_EQ(fw.stats().passed, 1u);
  EXPECT_EQ(fw.stats().blocked, 1u);
}

TEST_F(VerdictTiming, CentralizedActsOnArrival) {
  core::LocalFirewall fw("gate_m0", 1, manager, log);
  fw.connect_bus(bus_ep);
  EXPECT_EQ(leave_cycle(fw, bus::make_read(0, 0x100), 40), 40u + 16u);
  EXPECT_EQ(leave_cycle(fw, bus::make_write(0, 0x900, {1, 2, 3, 4}), 60),
            60u + 16u);
  EXPECT_EQ(fw.stats().passed, 1u);
  EXPECT_EQ(fw.stats().blocked, 1u);
}

TEST_F(VerdictTiming, SlaveSideChargesTheCheckLatency) {
  core::SlaveFirewall local("lf_bram", 2, config_mem, log, bram);
  core::SlaveFirewall central("gate_bram", 2, manager, log, bram);
  for (const auto& [fw, check] :
       {std::pair{&local, sim::Cycle{12}}, std::pair{&central, sim::Cycle{16}}}) {
    auto ok = bus::make_write(0, 0x100, {1, 2, 3, 4});
    const auto ok_result = fw->access(ok, 100);
    EXPECT_EQ(ok_result.status, bus::TransStatus::kOk);
    EXPECT_EQ(ok_result.latency, check + 1u) << "check + BRAM latency";

    auto bad = bus::make_write(0, 0x900, {1, 2, 3, 4});
    const auto bad_result = fw->access(bad, 200);
    EXPECT_EQ(bad_result.status, bus::TransStatus::kSecurityViolation);
    EXPECT_EQ(bad_result.latency, check);
  }
}

}  // namespace
}  // namespace secbus::baseline
