// Local Firewall DoS throttle: policy-legal traffic is still bounded per
// window, suppressing "overwhelming traffic" floods at the infected IP's
// own interface (Section III.A).
#include <gtest/gtest.h>

#include "bus/system_bus.hpp"
#include "core/local_firewall.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

namespace secbus::core {
namespace {

struct RateLimitFixture : public ::testing::Test {
  void SetUp() override {
    config_mem.install(
        1, PolicyBuilder(1).allow(0x0, 0x1000, RwAccess::kReadWrite).build());
    bus_obj = std::make_unique<bus::SystemBus>("bus");
    const auto sid = bus_obj->add_slave(bram);
    bus_obj->map_region(0x0000, 0x1000, sid, "bram");
  }

  LocalFirewall& make_firewall(sim::Cycle window, std::uint32_t max_per_window) {
    LocalFirewall::Config cfg;
    cfg.rate_limit_window = window;
    cfg.rate_limit_max = max_per_window;
    fw = std::make_unique<LocalFirewall>("lf_throttled", 1, config_mem, log, cfg);
    fw->connect_bus(bus_obj->attach_master(0, "m0"));
    kernel.add(*fw);
    kernel.add(*bus_obj);
    return *fw;
  }

  // Pushes n writes and runs until the firewall and the bus are idle.
  std::pair<std::uint64_t, std::uint64_t> blast(std::size_t n,
                                                sim::Cycle max_cycles = 20'000) {
    for (std::size_t i = 0; i < n; ++i) {
      fw->ip_side().request.push(bus::make_write(0, 0x100, {1, 2, 3, 4}));
    }
    EXPECT_TRUE(kernel.run_until_idle(max_cycles));
    EXPECT_EQ(fw->ip_side().response.size(), n);
    std::uint64_t ok = 0, limited = 0;
    while (!fw->ip_side().response.empty()) {
      const auto resp = fw->ip_side().response.take();
      if (resp.status == bus::TransStatus::kOk) {
        ++ok;
      } else {
        ++limited;
      }
    }
    return {ok, limited};
  }

  sim::SimKernel kernel;
  ConfigurationMemory config_mem;
  SecurityEventLog log;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  std::unique_ptr<bus::SystemBus> bus_obj;
  std::unique_ptr<LocalFirewall> fw;
};

TEST_F(RateLimitFixture, DisabledByDefault) {
  LocalFirewall::Config cfg;  // window 0 = off
  fw = std::make_unique<LocalFirewall>("lf_open", 1, config_mem, log, cfg);
  fw->connect_bus(bus_obj->attach_master(0, "m0"));
  kernel.add(*fw);
  kernel.add(*bus_obj);
  const auto [ok, limited] = blast(20);
  EXPECT_EQ(ok, 20u);
  EXPECT_EQ(limited, 0u);
}

TEST_F(RateLimitFixture, ExcessTrafficDiscardedWithRateAlert) {
  // Checks serialize at 12 cycles each, so 10 back-to-back writes span
  // ~120+ cycles; with a 10k-cycle window and max 3, exactly 3 pass.
  make_firewall(10'000, 3);
  const auto [ok, limited] = blast(10);
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(limited, 7u);
  EXPECT_EQ(fw->stats().violation_count(Violation::kRateLimited), 7u);
  EXPECT_EQ(log.count_of(Violation::kRateLimited), 7u);
  EXPECT_EQ(bram.writes(), 3u);
}

TEST_F(RateLimitFixture, WindowRefillsOverTime) {
  make_firewall(500, 2);
  auto [ok1, limited1] = blast(4);
  EXPECT_EQ(ok1, 2u);
  EXPECT_EQ(limited1, 2u);
  // Advance past the window; the budget refills.
  kernel.run(600);
  auto [ok2, limited2] = blast(2);
  EXPECT_EQ(ok2, 2u);
  EXPECT_EQ(limited2, 0u);
}

TEST_F(RateLimitFixture, ViolationsDontConsumeBudget) {
  make_firewall(10'000, 2);
  // Two rule violations (unmapped segment) followed by two legal writes.
  fw->ip_side().request.push(bus::make_write(0, 0x4000, {1, 2, 3, 4}));
  fw->ip_side().request.push(bus::make_write(0, 0x4000, {1, 2, 3, 4}));
  fw->ip_side().request.push(bus::make_write(0, 0x100, {1, 2, 3, 4}));
  fw->ip_side().request.push(bus::make_write(0, 0x100, {1, 2, 3, 4}));
  EXPECT_TRUE(kernel.run_until_idle(20'000));
  EXPECT_EQ(fw->ip_side().response.size(), 4u);
  std::uint64_t ok = 0;
  while (!fw->ip_side().response.empty()) {
    if (fw->ip_side().response.take().status == bus::TransStatus::kOk) ++ok;
  }
  // Both legal writes fit the budget: the violations didn't count.
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(fw->stats().violation_count(Violation::kRateLimited), 0u);
}

TEST_F(RateLimitFixture, ResetClearsWindowState) {
  make_firewall(1'000'000, 1);
  (void)blast(2);  // consumes the single slot
  kernel.reset();
  const auto [ok, limited] = blast(1);
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(limited, 0u);
}

}  // namespace
}  // namespace secbus::core
