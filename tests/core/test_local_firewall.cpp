#include "core/local_firewall.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bus/system_bus.hpp"
#include "ip/scripted_master.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

namespace secbus::core {
namespace {

using bus::BusOp;
using bus::DataFormat;
using bus::TransStatus;

// Master-side firewall in front of a real bus + BRAM.
struct MasterFirewallFixture : public ::testing::Test {
  void SetUp() override {
    PolicyBuilder b(1);
    b.allow(0x0000, 0x800, RwAccess::kReadWrite, FormatMask::kAll, "rw");
    b.allow(0x0800, 0x800, RwAccess::kReadOnly, FormatMask::k32, "ro");
    config_mem.install(1, b.build());

    bus_obj = std::make_unique<bus::SystemBus>("bus");
    const auto sid = bus_obj->add_slave(bram);
    bus_obj->map_region(0x0000, 0x1000, sid, "bram");

    fw = std::make_unique<LocalFirewall>("lf_test", 1, config_mem, log);
    fw->connect_bus(bus_obj->attach_master(0, "m0"));
    kernel.add(*fw);
    kernel.add(*bus_obj);
  }

  // Pushes a transaction into the firewall's IP side and runs until the
  // firewall and the bus are idle, which they are once it answered.
  bus::BusTransaction submit(bus::BusTransaction t, sim::Cycle max = 200) {
    t.issued_at = kernel.now();
    fw->ip_side().request.push(std::move(t));
    EXPECT_TRUE(kernel.run_until_idle(max))
        << "not idle within " << max << " cycles";
    EXPECT_EQ(fw->ip_side().response.size(), 1u);
    return fw->ip_side().response.take();
  }

  sim::SimKernel kernel;
  ConfigurationMemory config_mem;
  SecurityEventLog log;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  std::unique_ptr<bus::SystemBus> bus_obj;
  std::unique_ptr<LocalFirewall> fw;
};

TEST_F(MasterFirewallFixture, AllowedWriteReachesMemory) {
  const auto resp = submit(bus::make_write(0, 0x100, {1, 2, 3, 4}));
  EXPECT_EQ(resp.status, TransStatus::kOk);
  EXPECT_EQ(fw->stats().passed, 1u);
  EXPECT_EQ(fw->stats().blocked, 0u);
  EXPECT_EQ(bram.writes(), 1u);
  EXPECT_TRUE(log.alerts().empty());
}

TEST_F(MasterFirewallFixture, AllowedReadReturnsData) {
  (void)submit(bus::make_write(0, 0x100, {5, 6, 7, 8}));
  const auto resp = submit(bus::make_read(0, 0x100));
  EXPECT_EQ(resp.status, TransStatus::kOk);
  EXPECT_EQ(resp.data, (std::vector<std::uint8_t>{5, 6, 7, 8}));
  EXPECT_EQ(fw->stats().responses_gated, 2u);
}

TEST_F(MasterFirewallFixture, CheckAddsTwelveCycles) {
  const auto resp = submit(bus::make_read(0, 0x100));
  // Pipeline: SB check occupies cycles 0..11 (12 cycles); the firewall
  // pushes bus-ward during its cycle-11 tick, the bus (ticking later the
  // same cycle) grants immediately, and the transfer takes 1 addr + 1 BRAM
  // latency + 1 beat, completing at cycle 13 — the check's final cycle
  // overlaps the bus grant.
  EXPECT_EQ(resp.completed_at - resp.issued_at, 13u);
  EXPECT_EQ(fw->stats().check_cycles, 12u);
}

TEST_F(MasterFirewallFixture, WriteToReadOnlyBlockedBeforeBus) {
  const auto resp = submit(bus::make_write(0, 0x900, {1, 2, 3, 4}));
  EXPECT_EQ(resp.status, TransStatus::kSecurityViolation);
  EXPECT_EQ(fw->stats().blocked, 1u);
  EXPECT_EQ(fw->stats().violation_count(Violation::kRwViolation), 1u);
  // Containment: the transaction never reached the bus or the memory.
  EXPECT_EQ(bus_obj->stats().transactions, 0u);
  EXPECT_EQ(bram.writes(), 0u);
  // Alert raised with the right shape.
  ASSERT_EQ(log.count(), 1u);
  EXPECT_EQ(log.alerts()[0].violation, Violation::kRwViolation);
  EXPECT_EQ(log.alerts()[0].firewall, 1u);
  EXPECT_EQ(log.alerts()[0].addr, 0x900u);
}

TEST_F(MasterFirewallFixture, OutOfSegmentBlocked) {
  const auto resp = submit(bus::make_read(0, 0x4000));
  EXPECT_EQ(resp.status, TransStatus::kSecurityViolation);
  EXPECT_EQ(fw->stats().violation_count(Violation::kNoMatchingSegment), 1u);
}

TEST_F(MasterFirewallFixture, BadFormatBlocked) {
  const auto resp = submit(bus::make_read(0, 0x900, DataFormat::kByte));
  EXPECT_EQ(resp.status, TransStatus::kSecurityViolation);
  EXPECT_EQ(fw->stats().violation_count(Violation::kFormatViolation), 1u);
}

TEST_F(MasterFirewallFixture, DiscardedWriteDataZeroed) {
  const auto resp = submit(bus::make_write(0, 0x900, {0xAA, 0xBB, 0xCC, 0xDD}));
  EXPECT_EQ(resp.data, std::vector<std::uint8_t>(4, 0));
}

TEST_F(MasterFirewallFixture, ChecksSerializeAcrossRequests) {
  bus::BusTransaction t1 = bus::make_read(0, 0x100);
  bus::BusTransaction t2 = bus::make_read(0, 0x200);
  t1.issued_at = t2.issued_at = 0;
  fw->ip_side().request.push(std::move(t1));
  fw->ip_side().request.push(std::move(t2));
  kernel.run(100);
  ASSERT_EQ(fw->ip_side().response.size(), 2u);
  const auto r1 = fw->ip_side().response.take();
  const auto r2 = fw->ip_side().response.take();
  // Second response at least 12 cycles (one SB slot) after the first.
  EXPECT_GE(r2.completed_at, r1.completed_at + 12u);
  EXPECT_EQ(fw->stats().secpol_reqs, 2u);
}

TEST_F(MasterFirewallFixture, WakeReflectsInFlightWork) {
  EXPECT_EQ(fw->next_wake(kernel.now()), sim::kNeverCycle);
  fw->ip_side().request.push(bus::make_read(0, 0x100));
  EXPECT_EQ(fw->next_wake(kernel.now()), kernel.now());
  EXPECT_TRUE(kernel.run_until_idle(100));
  EXPECT_EQ(fw->ip_side().response.size(), 1u);
  EXPECT_EQ(fw->next_wake(kernel.now()), sim::kNeverCycle);
}

TEST_F(MasterFirewallFixture, ResetClearsState) {
  (void)submit(bus::make_read(0, 0x100));
  fw->ip_side().request.push(bus::make_read(0, 0x100));
  fw->reset();
  EXPECT_EQ(fw->stats().secpol_reqs, 0u);
  EXPECT_EQ(fw->next_wake(kernel.now()), sim::kNeverCycle);
}

// One read through a firewall on a bus, with the master (M), the firewall
// (L) and the bus (B) registered in a given order.
struct DeliveryRig {
  explicit DeliveryRig(const std::string& order) {
    config_mem.install(1, PolicyBuilder(1)
                              .allow(0x0000, 0x1000, RwAccess::kReadWrite)
                              .build());
    const auto sid = bus_obj.add_slave(bram);
    bus_obj.map_region(0x0000, 0x1000, sid, "bram");
    fw.connect_bus(bus_obj.attach_master(0, "m0"));
    master.connect(fw.ip_side());
    master.enqueue_read(0, 0x100);
    for (const char c : order) {
      kernel.add(c == 'M'   ? static_cast<sim::Component&>(master)
                 : c == 'L' ? static_cast<sim::Component&>(fw)
                            : static_cast<sim::Component&>(bus_obj));
    }
  }

  sim::SimKernel kernel;
  ConfigurationMemory config_mem;
  SecurityEventLog log;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus_obj{"bus"};
  LocalFirewall fw{"lf", 1, config_mem, log};
  ip::ScriptedMaster master{"m", 0};
};

struct DeliveryCase {
  const char* order;
  sim::Cycle completed;  // the bus completes the read
  sim::Cycle gate;       // the firewall passes the response on
  sim::Cycle consumed;   // the master takes it
};

// The cycles below were pinned from the firewall that moved each response
// to its IP side in a tick of its own, woken by the bus: it ticked in the
// bus's completion cycle when registered after the bus, else one later,
// and its master saw the response one cycle later again when registered
// before the firewall. A SoC registers its CPUs before their firewalls
// and both before the buses (MLB); a custom master comes after its
// firewall, both after the buses (BLM).
class DeliveryCycle
    : public ::testing::TestWithParam<std::tuple<DeliveryCase, bool>> {
 protected:
  void TearDown() override { sim::set_lockstep_for_testing(false); }
};

TEST_P(DeliveryCycle, MasterTakesTheResponseAtThePinnedCycle) {
  const auto [c, lockstep] = GetParam();
  sim::set_lockstep_for_testing(lockstep);
  DeliveryRig rig(c.order);
  ASSERT_TRUE(rig.kernel.run_until_idle(1000));
  ASSERT_EQ(rig.master.stats().responses.size(), 1u);
  const bus::BusTransaction& resp = rig.master.stats().responses.front();
  EXPECT_EQ(resp.status, TransStatus::kOk);
  EXPECT_EQ(resp.completed_at, c.completed);
  EXPECT_EQ(resp.issued_at +
                static_cast<sim::Cycle>(rig.master.stats().latency.mean()),
            c.consumed);
  EXPECT_EQ(rig.fw.stats().responses_gated, 1u);
  EXPECT_EQ(rig.kernel.now(), c.consumed + 1);
}

TEST_P(DeliveryCycle, ResponseCountsAsGatedOnceTheGateCycleRan) {
  const auto [c, lockstep] = GetParam();
  sim::set_lockstep_for_testing(lockstep);
  // A run capped at cycle `cap` executes the cycles before it.
  for (const sim::Cycle cap : {c.gate - 1, c.gate, c.gate + 1}) {
    DeliveryRig rig(c.order);
    (void)rig.kernel.run_until_idle(cap);
    EXPECT_EQ(rig.fw.stats().responses_gated, cap > c.gate ? 1u : 0u)
        << "capped at " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, DeliveryCycle,
    ::testing::Combine(::testing::Values(DeliveryCase{"MLB", 13, 14, 15},
                                         DeliveryCase{"MBL", 14, 14, 15},
                                         DeliveryCase{"LBM", 14, 15, 15},
                                         DeliveryCase{"BLM", 15, 15, 15}),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).order) +
             (std::get<1>(info.param) ? "_lockstep" : "_wake");
    });

// Slave-side firewall decorating a BRAM.
struct SlaveFirewallFixture : public ::testing::Test {
  void SetUp() override {
    PolicyBuilder b(2);
    b.allow(0x0000, 0x800, RwAccess::kReadWrite, FormatMask::kAll, "rw");
    b.allow(0x0800, 0x800, RwAccess::kReadOnly, FormatMask::k32, "ro");
    config_mem.install(2, b.build());
    fw = std::make_unique<SlaveFirewall>("slf", 2, config_mem, log, bram);
  }

  ConfigurationMemory config_mem;
  SecurityEventLog log;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  std::unique_ptr<SlaveFirewall> fw;
};

TEST_F(SlaveFirewallFixture, AllowedAccessAddsCheckLatency) {
  auto w = bus::make_write(0, 0x100, {1, 2, 3, 4});
  const auto result = fw->access(w, 0);
  EXPECT_EQ(result.status, TransStatus::kOk);
  EXPECT_EQ(result.latency, 12u + 1u);  // SB check + BRAM latency
  EXPECT_EQ(bram.writes(), 1u);
}

TEST_F(SlaveFirewallFixture, ViolationNeverReachesDevice) {
  auto w = bus::make_write(0, 0x900, {1, 2, 3, 4});
  const auto result = fw->access(w, 0);
  EXPECT_EQ(result.status, TransStatus::kSecurityViolation);
  EXPECT_EQ(result.latency, 12u);
  EXPECT_EQ(bram.writes(), 0u);
  EXPECT_EQ(log.count(), 1u);
  EXPECT_EQ(fw->stats().blocked, 1u);
}

TEST_F(SlaveFirewallFixture, BlockedReadDataZeroed) {
  // Preload then attempt a byte read of the 32-bit-only segment.
  bram.store().write_byte(0x900, 0x7F);
  auto r = bus::make_read(0, 0x900, DataFormat::kByte);
  r.data.assign(1, 0x55);  // stale buffer contents
  const auto result = fw->access(r, 0);
  EXPECT_EQ(result.status, TransStatus::kSecurityViolation);
  EXPECT_EQ(r.data, std::vector<std::uint8_t>(1, 0));
}

TEST_F(SlaveFirewallFixture, StatsAccumulate) {
  auto ok = bus::make_read(0, 0x100);
  auto bad = bus::make_write(0, 0x900, {1, 2, 3, 4});
  (void)fw->access(ok, 0);
  (void)fw->access(bad, 20);
  EXPECT_EQ(fw->stats().secpol_reqs, 2u);
  EXPECT_EQ(fw->stats().passed, 1u);
  EXPECT_EQ(fw->stats().blocked, 1u);
  EXPECT_EQ(fw->stats().check_cycles, 24u);
}

}  // namespace
}  // namespace secbus::core
