#include "ip/processor.hpp"

#include <gtest/gtest.h>

#include "bus/system_bus.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

namespace secbus::ip {
namespace {

Processor::Workload basic_workload(std::uint64_t total = 50) {
  Processor::Workload w;
  w.targets.push_back({0x0000, 0x800, 0.7, false});
  w.targets.push_back({0x0800, 0x800, 0.3, true});
  w.write_fraction = 0.5;
  w.total_transactions = total;
  return w;
}

struct ProcessorFixture : public ::testing::Test {
  void SetUp() override {
    bus_obj = std::make_unique<bus::SystemBus>("bus");
    const auto sid = bus_obj->add_slave(bram);
    bus_obj->map_region(0x0000, 0x1000, sid, "bram");
  }

  Processor& make_cpu(std::uint64_t seed, Processor::Workload w) {
    cpu = std::make_unique<Processor>("cpu0", 0, seed, std::move(w));
    cpu->connect(bus_obj->attach_master(0, "cpu0"));
    kernel.add(*cpu);
    kernel.add(*bus_obj);
    return *cpu;
  }

  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  std::unique_ptr<bus::SystemBus> bus_obj;
  std::unique_ptr<Processor> cpu;
};

TEST_F(ProcessorFixture, CompletesConfiguredTransactionCount) {
  auto& c = make_cpu(1, basic_workload(50));
  EXPECT_TRUE(kernel.run_until_idle(100'000));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.stats().completed, 50u);
  EXPECT_EQ(c.stats().failed, 0u);
  EXPECT_EQ(c.stats().issued, 50u);
  EXPECT_EQ(c.stats().reads + c.stats().writes, 50u);
}

TEST_F(ProcessorFixture, TracksInternalExternalMix) {
  auto& c = make_cpu(2, basic_workload(200));
  EXPECT_TRUE(kernel.run_until_idle(200'000));
  const auto& s = c.stats();
  EXPECT_EQ(s.internal_accesses + s.external_accesses, 200u);
  // 70/30 split within statistical slack.
  EXPECT_GT(s.internal_accesses, 100u);
  EXPECT_GT(s.external_accesses, 20u);
}

TEST_F(ProcessorFixture, WriteFractionRespected) {
  Processor::Workload w = basic_workload(300);
  w.write_fraction = 0.8;
  auto& c = make_cpu(3, std::move(w));
  EXPECT_TRUE(kernel.run_until_idle(300'000));
  EXPECT_GT(c.stats().writes, 200u);
  EXPECT_LT(c.stats().reads, 100u);
}

TEST_F(ProcessorFixture, ComputeGapsAccumulate) {
  Processor::Workload w = basic_workload(20);
  w.compute_min = 10;
  w.compute_max = 10;
  auto& c = make_cpu(4, std::move(w));
  EXPECT_TRUE(kernel.run_until_idle(100'000));
  // At least 10 compute cycles per transaction.
  EXPECT_GE(c.stats().compute_cycles, 200u);
  EXPECT_GT(c.stats().stall_cycles, 0u);
}

TEST_F(ProcessorFixture, LatencyMeasured) {
  auto& c = make_cpu(5, basic_workload(30));
  EXPECT_TRUE(kernel.run_until_idle(100'000));
  EXPECT_EQ(c.stats().latency.count(), 30u);
  // Minimum: 1 addr + 1 BRAM + 1 beat, plus queue hand-offs.
  EXPECT_GE(c.stats().latency.min(), 3.0);
}

TEST_F(ProcessorFixture, DeterministicForSameSeed) {
  auto& c = make_cpu(42, basic_workload(100));
  EXPECT_TRUE(kernel.run_until_idle(200'000));
  const auto bytes_first = c.stats().bytes_moved;
  const auto latency_first = c.stats().latency.mean();

  // Fresh identical setup.
  sim::SimKernel kernel2;
  mem::Bram bram2{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus2("bus");
  const auto sid = bus2.add_slave(bram2);
  bus2.map_region(0x0000, 0x1000, sid, "bram");
  Processor cpu2("cpu0", 0, 42, basic_workload(100));
  cpu2.connect(bus2.attach_master(0, "cpu0"));
  kernel2.add(cpu2);
  kernel2.add(bus2);
  EXPECT_TRUE(kernel2.run_until_idle(200'000));

  EXPECT_EQ(cpu2.stats().bytes_moved, bytes_first);
  EXPECT_DOUBLE_EQ(cpu2.stats().latency.mean(), latency_first);
}

TEST_F(ProcessorFixture, ResetRestartsCleanly) {
  auto& c = make_cpu(6, basic_workload(10));
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_TRUE(c.done());
  kernel.reset();
  EXPECT_FALSE(c.done());
  EXPECT_EQ(c.stats().issued, 0u);
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_EQ(c.stats().completed, 10u);
}

TEST_F(ProcessorFixture, FailedResponsesCountAsProgress) {
  // Unmapped target: every access decode-errors, but the processor must
  // still terminate (no deadlock on failure).
  Processor::Workload w;
  w.targets.push_back({0x4000, 0x400, 1.0, false});  // unmapped on this bus
  w.total_transactions = 10;
  auto& c = make_cpu(7, std::move(w));
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.stats().failed, 10u);
  EXPECT_EQ(c.stats().completed, 0u);
}

}  // namespace
}  // namespace secbus::ip
