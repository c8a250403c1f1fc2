#include "bus/bridge.hpp"

#include <gtest/gtest.h>

#include "bus/system_bus.hpp"
#include "sim/kernel.hpp"

namespace secbus::bus {
namespace {

// Byte-array slave with fixed latency (same shape as the system-bus tests).
class FakeSlave final : public SlaveDevice {
 public:
  explicit FakeSlave(sim::Cycle latency = 1) : latency_(latency) {
    memory_.resize(0x1000, 0);
  }

  AccessResult access(BusTransaction& t, sim::Cycle now) override {
    last_access_cycle = now;
    ++accesses;
    const sim::Addr off = t.addr - base_;
    if (off + t.payload_bytes() > memory_.size()) {
      return {1, TransStatus::kSlaveError};
    }
    if (t.is_write()) {
      std::copy(t.data.begin(), t.data.end(),
                memory_.begin() + static_cast<long>(off));
    } else {
      t.data.assign(memory_.begin() + static_cast<long>(off),
                    memory_.begin() + static_cast<long>(off + t.payload_bytes()));
    }
    return {latency_, TransStatus::kOk};
  }
  [[nodiscard]] std::string_view slave_name() const override { return "fake"; }

  std::vector<std::uint8_t> memory_;
  sim::Addr base_ = 0;
  sim::Cycle latency_;
  sim::Cycle last_access_cycle = 0;
  int accesses = 0;
};

// Two segments joined by one near->far bridge. The near side maps a COARSE
// 0x2000-wide window onto the bridge while the far side only maps the first
// 0x1000 to a real slave — which is exactly the nested-window situation a
// routed fabric produces.
struct BridgeFixture : public ::testing::Test {
  void SetUp() override {
    near = std::make_unique<SystemBus>("near");
    far = std::make_unique<SystemBus>("far");
    bridge = std::make_unique<Bridge>("bridge_n2f", *far, Bridge::Config{2});

    far_slave_id = far->add_slave(slave);
    far->map_region(0x0000, 0x1000, far_slave_id, "mem");

    bridge_id = near->add_slave(*bridge);
    near->map_region(0x0000, 0x2000, bridge_id, "route-to-far");

    ep = &near->attach_master(0, "m0");
    far_ep = &far->attach_master(1, "far_local");
    kernel.add(*near);
    kernel.add(*far);
  }

  sim::SimKernel kernel;
  std::unique_ptr<SystemBus> near;
  std::unique_ptr<SystemBus> far;
  std::unique_ptr<Bridge> bridge;
  FakeSlave slave;
  sim::SlaveId far_slave_id = 0;
  sim::SlaveId bridge_id = 0;
  MasterEndpoint* ep = nullptr;
  MasterEndpoint* far_ep = nullptr;
};

TEST_F(BridgeFixture, WindowHitCrossSegmentRoundTrip) {
  BusTransaction w = make_write(0, 0x100, {0xAA, 0xBB, 0xCC, 0xDD});
  ep->request.push(std::move(w));
  kernel.run(20);
  ASSERT_FALSE(ep->response.empty());
  EXPECT_EQ(ep->response.take().status, TransStatus::kOk);
  EXPECT_EQ(slave.accesses, 1);
  EXPECT_EQ(slave.memory_[0x100], 0xAA);
  EXPECT_EQ(slave.memory_[0x103], 0xDD);

  BusTransaction r = make_read(0, 0x100, DataFormat::kWord, 1);
  ep->request.push(std::move(r));
  kernel.run(20);
  ASSERT_FALSE(ep->response.empty());
  const BusTransaction resp = ep->response.take();
  EXPECT_EQ(resp.status, TransStatus::kOk);
  EXPECT_EQ(resp.data, (std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC, 0xDD}));
  EXPECT_EQ(bridge->stats().forwarded, 2u);
  EXPECT_EQ(bridge->stats().decode_errors, 0u);
}

TEST_F(BridgeFixture, CrossingAddsHopLatency) {
  slave.latency_ = 3;
  BusTransaction r = make_read(0, 0x0, DataFormat::kWord, 2);
  ep->request.push(std::move(r));
  kernel.run(30);
  ASSERT_FALSE(ep->response.empty());
  const BusTransaction resp = ep->response.take();
  // Local timing is grant(addr) + latency + beats = completed at 5 (see
  // TransactionTimingMatchesModel); the crossing adds hop_latency = 2.
  EXPECT_EQ(resp.granted_at, 0u);
  EXPECT_EQ(resp.completed_at, 7u);
}

TEST_F(BridgeFixture, NestedWindowMissReturnsDecodeError) {
  // 0x1800 hits the near side's coarse routing window but is a hole in the
  // far segment's map.
  BusTransaction r = make_read(0, 0x1800);
  ep->request.push(std::move(r));
  kernel.run(20);
  ASSERT_FALSE(ep->response.empty());
  EXPECT_EQ(ep->response.take().status, TransStatus::kDecodeError);
  EXPECT_EQ(bridge->stats().decode_errors, 1u);
  EXPECT_EQ(bridge->stats().forwarded, 0u);
  EXPECT_EQ(slave.accesses, 0);
}

TEST_F(BridgeFixture, NestedWindowResolvesFinerFarRegions) {
  // A second far-side slave under the same coarse near-side window: the far
  // decode — not the bridge window — picks the device.
  FakeSlave second;
  second.base_ = 0x1000;
  const sim::SlaveId second_id = far->add_slave(second);
  far->map_region(0x1000, 0x800, second_id, "mem-hi");

  ep->request.push(make_write(0, 0x1004, {7, 7, 7, 7}));
  kernel.run(20);
  ASSERT_FALSE(ep->response.empty());
  EXPECT_EQ(ep->response.take().status, TransStatus::kOk);
  EXPECT_EQ(slave.accesses, 0);
  EXPECT_EQ(second.accesses, 1);
  EXPECT_EQ(second.memory_[0x4], 7);
}

TEST_F(BridgeFixture, ReservationMakesFarLocalMasterWait) {
  // Far-local master and bridged traffic collide on the far segment: the
  // crossing books its service window on the far bus, so the local
  // master's grant slides past the booked window.
  slave.latency_ = 10;
  ep->request.push(make_read(0, 0x0, DataFormat::kWord, 4));
  kernel.run(1);  // near bus grants, bridge books the crossing on far
  EXPECT_GT(far->booked_until(), kernel.now());

  far_ep->request.push(make_read(1, 0x20));
  kernel.run(40);
  ASSERT_FALSE(far_ep->response.empty());
  const BusTransaction resp = far_ep->response.take();
  EXPECT_EQ(resp.status, TransStatus::kOk);
  // Issued at cycle 1 but granted only after the reservation expired
  // (hop 2 + slave 10 + 4 beats => held through cycle 15).
  EXPECT_GE(resp.granted_at, 16u);
  EXPECT_GT(far->master_stats().front().wait_cycles.mean(), 0.0);
}

TEST_F(BridgeFixture, CrossingWaitsForFarLocalTransaction) {
  // Contention in the other direction: the far segment is mid local
  // transaction when the crossing arrives, so the crossing queues behind it
  // (and the wait is charged to the origin's hold).
  slave.latency_ = 10;
  far_ep->request.push(make_read(1, 0x20));
  kernel.run(1);  // far grants its local master

  ep->request.push(make_read(0, 0x0));
  kernel.run(60);
  ASSERT_FALSE(ep->response.empty());
  EXPECT_EQ(ep->response.take().status, TransStatus::kOk);
  EXPECT_GT(bridge->stats().far_wait.max(), 0.0);
}

TEST_F(BridgeFixture, TwoHopChainReachesRemoteSlave) {
  // near -> far -> farthest: the far segment's own map routes a window to a
  // second bridge, so the crossing recurses one more hop.
  SystemBus farthest("farthest");
  FakeSlave remote;
  remote.base_ = 0x4000;
  const sim::SlaveId remote_id = farthest.add_slave(remote);
  farthest.map_region(0x4000, 0x1000, remote_id, "remote");

  Bridge hop2("bridge_f2x", farthest, Bridge::Config{2});
  const sim::SlaveId hop2_id = far->add_slave(hop2);
  far->map_region(0x4000, 0x1000, hop2_id, "route-to-farthest");
  near->map_region(0x4000, 0x1000, bridge_id, "route-via-far");

  ep->request.push(make_write(0, 0x4010, {1, 2, 3, 4}));
  kernel.run(30);
  ASSERT_FALSE(ep->response.empty());
  EXPECT_EQ(ep->response.take().status, TransStatus::kOk);
  EXPECT_EQ(remote.accesses, 1);
  EXPECT_EQ(remote.memory_[0x10], 1);
  EXPECT_EQ(bridge->stats().forwarded, 1u);
  EXPECT_EQ(hop2.stats().forwarded, 1u);
  // Both crossed segments got circuit-held.
  EXPECT_GT(far->stats().bridged_in, 0u);
  EXPECT_GT(farthest.stats().bridged_in, 0u);
}

}  // namespace
}  // namespace secbus::bus
