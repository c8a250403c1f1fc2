// Conservation fuzz: under randomized multi-master traffic, the bus must
// deliver exactly one response per request — nothing lost, duplicated or
// cross-delivered — and firewalled paths must preserve the same invariant
// (passed + blocked == issued). These invariants underpin every overhead
// measurement in the benches.
#include <gtest/gtest.h>

#include <map>

#include "bus/system_bus.hpp"
#include "core/local_firewall.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace secbus::bus {
namespace {

class BusFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusFuzz, EveryRequestGetsExactlyOneResponse) {
  util::Xoshiro256 rng(GetParam());
  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x4000, 1}};
  SystemBus bus("bus");
  const auto sid = bus.add_slave(bram);
  bus.map_region(0x0000, 0x4000, sid, "bram");

  constexpr int kMasters = 4;
  std::vector<MasterEndpoint*> eps;
  for (int m = 0; m < kMasters; ++m) {
    eps.push_back(&bus.attach_master(static_cast<sim::MasterId>(m),
                                     "m" + std::to_string(m)));
  }
  kernel.add(bus);

  // Issue a random number of random transactions per master; some target
  // unmapped space on purpose (decode errors still produce responses).
  std::map<sim::TransactionId, int> outstanding;  // id -> owning master
  std::uint64_t issued = 0;
  for (int m = 0; m < kMasters; ++m) {
    const std::uint64_t count = rng.range(5, 30);
    for (std::uint64_t i = 0; i < count; ++i) {
      const bool unmapped = rng.chance(0.15);
      const DataFormat fmt = rng.chance(0.3) ? DataFormat::kByte
                                             : DataFormat::kWord;
      const auto burst = static_cast<std::uint16_t>(rng.range(1, 6));
      const std::uint64_t bytes = burst * beat_bytes(fmt);
      const sim::Addr addr =
          (unmapped ? 0x8000u : 0u) + rng.below(0x4000 - bytes);
      BusTransaction t = rng.chance(0.5)
                             ? make_read(static_cast<sim::MasterId>(m), addr,
                                         fmt, burst)
                             : make_write(static_cast<sim::MasterId>(m), addr,
                                          std::vector<std::uint8_t>(bytes, 0xA5),
                                          fmt);
      t.id = make_trans_id(static_cast<sim::MasterId>(m), i + 1);
      outstanding[t.id] = m;
      ++issued;
      eps[static_cast<std::size_t>(m)]->request.push(std::move(t));
    }
  }

  kernel.run(20'000);

  std::uint64_t received = 0;
  for (int m = 0; m < kMasters; ++m) {
    while (!eps[static_cast<std::size_t>(m)]->response.empty()) {
      const BusTransaction resp = eps[static_cast<std::size_t>(m)]->response.take();
      ++received;
      auto it = outstanding.find(resp.id);
      ASSERT_NE(it, outstanding.end()) << "duplicate or unknown response";
      EXPECT_EQ(it->second, m) << "response delivered to the wrong master";
      EXPECT_NE(resp.status, TransStatus::kPending);
      outstanding.erase(it);
    }
  }
  EXPECT_EQ(received, issued);
  EXPECT_TRUE(outstanding.empty()) << outstanding.size() << " lost responses";
  EXPECT_EQ(bus.stats().transactions, issued);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusFuzz, ::testing::Values(1, 2, 3, 5, 8, 13));

class FirewallFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FirewallFuzz, ConservationThroughTheFirewall) {
  util::Xoshiro256 rng(GetParam() * 977);
  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x4000, 1}};
  SystemBus bus("bus");
  const auto sid = bus.add_slave(bram);
  bus.map_region(0x0000, 0x4000, sid, "bram");

  core::ConfigurationMemory config_mem;
  core::SecurityEventLog log;
  // Half the window writable, a quarter read-only, a quarter unreachable.
  config_mem.install(1, core::PolicyBuilder(1)
                            .allow(0x0000, 0x2000, core::RwAccess::kReadWrite)
                            .allow(0x2000, 0x1000, core::RwAccess::kReadOnly,
                                   core::FormatMask::k32)
                            .build());
  core::LocalFirewall fw("lf_fuzz", 1, config_mem, log);
  fw.connect_bus(bus.attach_master(0, "m0"));
  kernel.add(fw);
  kernel.add(bus);

  const std::uint64_t issued = rng.range(20, 60);
  for (std::uint64_t i = 0; i < issued; ++i) {
    const sim::Addr addr = rng.below(0x4800);  // may exceed policy & map
    BusTransaction t = rng.chance(0.5)
                           ? make_read(0, addr,
                                       rng.chance(0.3) ? DataFormat::kByte
                                                       : DataFormat::kWord)
                           : make_write(0, addr, {1, 2, 3, 4});
    t.id = make_trans_id(0, i + 1);
    fw.ip_side().request.push(std::move(t));
  }

  kernel.run(30'000);

  std::uint64_t received = 0;
  while (!fw.ip_side().response.empty()) {
    (void)fw.ip_side().response.take();
    ++received;
  }
  EXPECT_EQ(received, issued);
  EXPECT_EQ(fw.stats().passed + fw.stats().blocked, issued);
  EXPECT_EQ(fw.stats().blocked, log.count());
  EXPECT_EQ(fw.next_wake(kernel.now()), sim::kNeverCycle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirewallFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace secbus::bus
