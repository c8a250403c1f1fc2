#include "ip/dma_engine.hpp"

#include <gtest/gtest.h>

#include "bus/system_bus.hpp"
#include "ip/scripted_master.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

namespace secbus::ip {
namespace {

struct DmaFixture : public ::testing::Test {
  void SetUp() override {
    bus_obj = std::make_unique<bus::SystemBus>("bus");
    const auto sid = bus_obj->add_slave(bram);
    bus_obj->map_region(0x0000, 0x2000, sid, "bram");
    dma = std::make_unique<DmaEngine>("dma", 9);
    dma->connect(bus_obj->attach_master(9, "dma"));
    kernel.add(*dma);
    kernel.add(*bus_obj);
  }

  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x2000, 1}};
  std::unique_ptr<bus::SystemBus> bus_obj;
  std::unique_ptr<DmaEngine> dma;
};

TEST_F(DmaFixture, CopiesRegionCorrectly) {
  std::vector<std::uint8_t> source(256);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  bram.store().write(0x0100, {source.data(), source.size()});

  dma->start(DmaEngine::Job{0x0100, 0x1000, 256, 8});
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_TRUE(dma->done());

  std::vector<std::uint8_t> copied(256);
  bram.store().read(0x1000, {copied.data(), copied.size()});
  EXPECT_EQ(copied, source);
  EXPECT_EQ(dma->stats().bytes_copied, 256u);
  EXPECT_EQ(dma->stats().bursts, 8u);  // 256 bytes / 32-byte bursts
  EXPECT_EQ(dma->stats().errors, 0u);
}

TEST_F(DmaFixture, HandlesNonMultipleBurstTail) {
  bram.store().write_byte(0x0000, 0x77);
  dma->start(DmaEngine::Job{0x0000, 0x1000, 40, 8});  // 32 + 8 bytes
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_EQ(dma->stats().bytes_copied, 40u);
  EXPECT_EQ(dma->stats().bursts, 2u);
  EXPECT_EQ(bram.store().read_byte(0x1000), 0x77);
}

TEST_F(DmaFixture, AbortsOnError) {
  // Destination outside the mapped region: the write decode-errors and the
  // DMA must abort rather than hang.
  dma->start(DmaEngine::Job{0x0000, 0x8000, 64, 8});
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_TRUE(dma->done());
  EXPECT_EQ(dma->stats().errors, 1u);
  EXPECT_EQ(dma->stats().bytes_copied, 0u);
}

TEST_F(DmaFixture, TimestampsRecorded) {
  dma->start(DmaEngine::Job{0x0000, 0x1000, 64, 4});
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_GT(dma->stats().finished_at, dma->stats().started_at);
}

TEST_F(DmaFixture, StartedAtIsTheFirstReadIssueCycle) {
  // A job started at cycle 0 must not read as unset and be stamped again
  // by its first write.
  dma->start(DmaEngine::Job{0x0000, 0x1000, 64, 4});
  ASSERT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_EQ(dma->stats().started_at, 0u);
  EXPECT_GT(dma->stats().finished_at, 0u);

  kernel.reset();
  kernel.run(100);
  dma->start(DmaEngine::Job{0x0000, 0x1000, 64, 4});
  ASSERT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_EQ(dma->stats().started_at, 100u);
  EXPECT_GT(dma->stats().finished_at, 100u);
}

TEST(ScriptedMaster, RunsScriptInOrder) {
  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus("bus");
  const auto sid = bus.add_slave(bram);
  bus.map_region(0x0000, 0x1000, sid, "bram");
  ScriptedMaster master("script", 3);
  master.connect(bus.attach_master(3, "script"));
  kernel.add(master);
  kernel.add(bus);

  master.enqueue_write(0, 0x100, {1, 2, 3, 4});
  master.enqueue_read(5, 0x100);
  master.enqueue_read(0, 0x104);
  EXPECT_TRUE(kernel.run_until_idle(10'000));

  ASSERT_TRUE(master.done());
  const auto& s = master.stats();
  EXPECT_EQ(s.issued, 3u);
  EXPECT_EQ(s.ok, 3u);
  ASSERT_EQ(s.responses.size(), 3u);
  EXPECT_EQ(s.responses[1].data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(s.responses[2].data, std::vector<std::uint8_t>(4, 0));
}

TEST(ScriptedMaster, DelaysSpaceOutIssues) {
  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus("bus");
  const auto sid = bus.add_slave(bram);
  bus.map_region(0x0000, 0x1000, sid, "bram");
  ScriptedMaster master("script", 3);
  master.connect(bus.attach_master(3, "script"));
  kernel.add(master);
  kernel.add(bus);

  master.enqueue_read(0, 0x0);
  master.enqueue_read(100, 0x0);
  EXPECT_TRUE(kernel.run_until_idle(10'000));
  const auto& r = master.stats().responses;
  ASSERT_EQ(r.size(), 2u);
  EXPECT_GE(r[1].issued_at, r[0].completed_at + 100);
}

}  // namespace
}  // namespace secbus::ip
