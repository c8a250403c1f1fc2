#include "bus/fabric.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ip/scripted_master.hpp"
#include "sim/kernel.hpp"

namespace secbus::bus {
namespace {

class FakeSlave final : public SlaveDevice {
 public:
  AccessResult access(BusTransaction& t, sim::Cycle /*now*/) override {
    ++accesses;
    if (t.is_write()) {
      last_write.assign(t.data.begin(), t.data.end());
    } else {
      t.data.assign(t.payload_bytes(), 0x5A);
    }
    return {latency, TransStatus::kOk};
  }
  [[nodiscard]] std::string_view slave_name() const override { return "fake"; }

  int accesses = 0;
  sim::Cycle latency = 1;
  std::vector<std::uint8_t> last_write;
};

TEST(FabricTopology, PresetShapes) {
  EXPECT_EQ(FabricTopology::flat().segments, 1u);
  EXPECT_TRUE(FabricTopology::flat().links.empty());

  const FabricTopology star = FabricTopology::star(4);
  EXPECT_EQ(star.segments, 5u);
  EXPECT_EQ(star.links.size(), 4u);
  EXPECT_TRUE(star.validate());

  const FabricTopology mesh = FabricTopology::mesh(2, 2);
  EXPECT_EQ(mesh.segments, 4u);
  EXPECT_EQ(mesh.links.size(), 4u);  // 2 horizontal + 2 vertical
  EXPECT_TRUE(mesh.validate());

  const FabricTopology mesh43 = FabricTopology::mesh(4, 3);
  EXPECT_EQ(mesh43.segments, 12u);
  // rows*(cols-1) horizontal + (rows-1)*cols vertical.
  EXPECT_EQ(mesh43.links.size(), 4u * 2u + 3u * 3u);
  EXPECT_TRUE(mesh43.validate());
}

TEST(FabricTopology, RejectsMalformedGraphs) {
  std::string error;

  FabricTopology out_of_range;
  out_of_range.segments = 2;
  out_of_range.links.push_back({0, 5, 2});
  EXPECT_FALSE(out_of_range.validate(&error));

  FabricTopology self_link;
  self_link.segments = 2;
  self_link.links.push_back({1, 1, 2});
  EXPECT_FALSE(self_link.validate(&error));

  FabricTopology disconnected;
  disconnected.segments = 3;
  disconnected.links.push_back({0, 1, 2});  // segment 2 unreachable
  EXPECT_FALSE(disconnected.validate(&error));
  EXPECT_EQ(error, "topology is not connected");

  FabricTopology zero_hop;
  zero_hop.segments = 2;
  zero_hop.links.push_back({0, 1, 0});
  EXPECT_FALSE(zero_hop.validate(&error));
}

TEST(Fabric, HopCountsAndRoutesOnMesh2x2) {
  // Segment layout: 0 1
  //                 2 3
  Fabric fabric(FabricTopology::mesh(2, 2));
  EXPECT_EQ(fabric.hop_count(0, 0), 0u);
  EXPECT_EQ(fabric.hop_count(0, 1), 1u);
  EXPECT_EQ(fabric.hop_count(0, 2), 1u);
  EXPECT_EQ(fabric.hop_count(0, 3), 2u);
  EXPECT_EQ(fabric.hop_count(3, 0), 2u);
  // Deterministic tie-break: of 3's neighbors {1, 2}, BFS meets 1 first.
  EXPECT_EQ(fabric.next_hop(3, 0), 1u);
  EXPECT_EQ(fabric.farthest_segment_from(0), 3u);
}

TEST(Fabric, FlatFabricIsTheLegacyBus) {
  Fabric fabric(FabricTopology::flat());
  FakeSlave slave;
  const auto id = fabric.add_slave(slave, 0);
  fabric.map_region(0x0, 0x1000, id, "mem");
  fabric.finalize();
  EXPECT_EQ(fabric.segment_count(), 1u);
  EXPECT_TRUE(fabric.bridges().empty());
  EXPECT_EQ(fabric.segment(0).name(), "system_bus");
  EXPECT_EQ(fabric.farthest_segment_from(0), 0u);
}

TEST(Fabric, StarRoutesLeafTrafficThroughHub) {
  Fabric fabric(FabricTopology::star(2));
  FakeSlave slave;
  const auto id = fabric.add_slave(slave, 0);
  fabric.map_region(0x0, 0x1000, id, "mem");

  MasterEndpoint& leaf1 = fabric.attach_master(1, 0, "leaf1");
  MasterEndpoint& leaf2 = fabric.attach_master(2, 1, "leaf2");
  fabric.finalize();
  // One bridge per leaf toward the hub; nothing routes hub -> leaf because
  // no slave lives on a leaf.
  EXPECT_EQ(fabric.bridges().size(), 2u);

  sim::SimKernel kernel;
  fabric.register_components(kernel);
  leaf1.request.push(make_write(0, 0x10, {1, 2, 3, 4}));
  leaf2.request.push(make_read(1, 0x20));
  kernel.run(40);

  ASSERT_FALSE(leaf1.response.empty());
  ASSERT_FALSE(leaf2.response.empty());
  EXPECT_EQ(leaf1.response.take().status, TransStatus::kOk);
  EXPECT_EQ(leaf2.response.take().status, TransStatus::kOk);
  EXPECT_EQ(slave.accesses, 2);
  EXPECT_EQ(fabric.find_master("leaf1")->grants, 1u);
  EXPECT_EQ(fabric.find_master("leaf2")->grants, 1u);
  EXPECT_EQ(fabric.find_master("nobody"), nullptr);
  // Aggregate stats fold both leaf segments.
  EXPECT_EQ(fabric.transactions(), 2u);
  for (std::size_t seg = 0; seg < fabric.segment_count(); ++seg) {
    EXPECT_EQ(fabric.segment(seg).next_wake(kernel.now()), sim::kNeverCycle);
  }
}

TEST(Fabric, RemoteWindowsMaterializeOnEverySegment) {
  Fabric fabric(FabricTopology::mesh(2, 2));
  FakeSlave slave;
  const auto id = fabric.add_slave(slave, 0);
  fabric.map_region(0x8000, 0x1000, id, "mem");
  fabric.finalize();
  EXPECT_EQ(fabric.home_segment(id), 0u);
  for (std::size_t seg = 0; seg < 4; ++seg) {
    const Region* region = fabric.segment(seg).address_map().region_at(0x8800);
    ASSERT_NE(region, nullptr) << "segment " << seg;
    EXPECT_EQ(region->name, "mem");
  }
  // Segment 3 is two hops out: its window must point at a bridge, and the
  // chain 3 -> 1 -> 0 exists.
  EXPECT_EQ(fabric.hop_count(3, 0), 2u);
  EXPECT_GE(fabric.bridges().size(), 3u);  // 1->0, 2->0, 3->1
}

TEST(Fabric, CrossSegmentLatencyGrowsWithHopCount) {
  // Identical single-master traffic from segments at hop distance 0, 1 and
  // 2 of a 2x2 mesh: completion time must be strictly ordered by hops.
  sim::Cycle completed[3] = {0, 0, 0};
  const std::size_t sources[3] = {0, 1, 3};
  for (int i = 0; i < 3; ++i) {
    Fabric fabric(FabricTopology::mesh(2, 2));
    FakeSlave slave;
    const auto id = fabric.add_slave(slave, 0);
    fabric.map_region(0x0, 0x1000, id, "mem");
    MasterEndpoint& ep = fabric.attach_master(sources[i], 0, "m");
    fabric.finalize();
    sim::SimKernel kernel;
    fabric.register_components(kernel);
    ep.request.push(make_read(0, 0x40));
    kernel.run(30);
    ASSERT_FALSE(ep.response.empty());
    completed[i] = ep.response.take().completed_at;
  }
  EXPECT_LT(completed[0], completed[1]);
  EXPECT_LT(completed[1], completed[2]);
}

// Everything a mesh run's bus accounting produced, in one kernel mode.
struct MeshAccounting {
  sim::Cycle cycles = 0;
  std::uint64_t cycles_skipped = 0;
  std::vector<std::uint64_t> counters;  // busy/idle/transactions/bridged_in
  std::vector<double> waits;            // per-master wait mean/max

  bool operator==(const MeshAccounting& o) const {
    return cycles == o.cycles && counters == o.counters && waits == o.waits;
  }
};

MeshAccounting run_mesh_with_bookings(bool lockstep) {
  sim::set_lockstep_for_testing(lockstep);
  // Segment layout: 0 1
  //                 2 3
  // "remote" on segment 0 reads a slow memory on segment 3, crossing
  // 0 -> 1 -> 3: each crossing books a ~45-cycle window on segments 1 and
  // 3. "local" on segment 1 reads a memory on its own segment and collides
  // with those windows; between bursts every component sleeps, so jumps
  // start and end inside booked windows.
  Fabric fabric(FabricTopology::mesh(2, 2));
  FakeSlave far_mem;
  far_mem.latency = 40;
  FakeSlave seg1_mem;
  seg1_mem.latency = 3;
  fabric.map_region(0x0000, 0x1000, fabric.add_slave(far_mem, 3), "far");
  fabric.map_region(0x1000, 0x1000, fabric.add_slave(seg1_mem, 1), "seg1");
  ip::ScriptedMaster remote("remote", 0);
  ip::ScriptedMaster local("local", 1);
  remote.connect(fabric.attach_master(0, 0, "remote"));
  local.connect(fabric.attach_master(1, 1, "local"));
  fabric.finalize();

  sim::SimKernel kernel;
  kernel.add(remote);
  kernel.add(local);
  fabric.register_components(kernel);
  for (const sim::Cycle delay : {0, 200, 7, 300}) {
    remote.enqueue_read(delay, 0x40, DataFormat::kWord, 4);
  }
  for (const sim::Cycle delay : {3, 150, 2, 210, 1, 90}) {
    local.enqueue_read(delay, 0x1040);
  }
  const bool idle = kernel.run_until_idle(100'000);
  sim::set_lockstep_for_testing(false);
  EXPECT_TRUE(idle);
  EXPECT_TRUE(remote.done() && local.done());

  MeshAccounting acc;
  acc.cycles = kernel.now();
  acc.cycles_skipped = kernel.cycles_skipped();
  for (std::size_t seg = 0; seg < fabric.segment_count(); ++seg) {
    const SystemBus::BusStats& st = fabric.segment(seg).stats();
    acc.counters.insert(acc.counters.end(), {st.busy_cycles, st.idle_cycles,
                                             st.transactions, st.bridged_in});
  }
  for (const char* name : {"remote", "local"}) {
    const SystemBus::MasterStats* ms = fabric.find_master(name);
    EXPECT_NE(ms, nullptr);
    if (ms == nullptr) continue;
    acc.waits.insert(acc.waits.end(),
                     {ms->wait_cycles.mean(), ms->wait_cycles.max(),
                      ms->total_cycles.mean()});
  }
  return acc;
}

TEST(Fabric, BookingsStraddlingAJumpChargeBusyCyclesExactly) {
  const MeshAccounting oracle = run_mesh_with_bookings(/*lockstep=*/true);
  const MeshAccounting fast = run_mesh_with_bookings(/*lockstep=*/false);
  EXPECT_EQ(oracle.cycles_skipped, 0u);
  EXPECT_GT(fast.cycles_skipped, oracle.cycles / 2);
  // Segments 1 and 3 received crossings, so bookings were charged there.
  EXPECT_EQ(oracle.counters[4 * 1 + 3], 4u);
  EXPECT_EQ(oracle.counters[4 * 3 + 3], 4u);
  // Something had to wait for a booked window, or nothing was tested.
  EXPECT_GT(oracle.waits[4], 0.0) << "local never waited on a booking";
  EXPECT_EQ(oracle, fast);
}

// Segment accounting of a star run in one kernel mode.
struct BookingRun {
  std::vector<std::uint64_t> counters;  // busy/idle/bridged_in per segment
  std::vector<sim::Cycle> completed;    // completion cycle per response
  std::uint64_t ticks_dispatched = 0;

  bool operator==(const BookingRun& o) const {
    return counters == o.counters && completed == o.completed;
  }
};

// star(2): hub 0, leaves 1 and 2. A crossing from `master_seg` books the
// sleeping segment `slave_seg`, which at the time either idles (no local
// traffic) or counts down a slow local transaction that free_at() must see.
BookingRun run_booking(bool lockstep, std::size_t master_seg,
                       std::size_t slave_seg, bool far_busy) {
  sim::set_lockstep_for_testing(lockstep);
  Fabric fabric(FabricTopology::star(2));
  FakeSlave target;
  target.latency = 9;
  FakeSlave slow;
  slow.latency = 60;
  fabric.map_region(0x0000, 0x1000, fabric.add_slave(target, slave_seg),
                    "target");
  fabric.map_region(0x1000, 0x1000, fabric.add_slave(slow, slave_seg),
                    "slow");
  ip::ScriptedMaster crosser("crosser", 0);
  ip::ScriptedMaster local("local", 1);
  crosser.connect(fabric.attach_master(master_seg, 0, "crosser"));
  local.connect(fabric.attach_master(slave_seg, 1, "local"));
  fabric.finalize();

  sim::SimKernel kernel;
  kernel.add(crosser);
  kernel.add(local);
  fabric.register_components(kernel);
  // The local read holds the far segment for ~60 cycles from cycle ~2; the
  // crossings land inside that span and, later, on an idle segment.
  if (far_busy) local.enqueue_read(1, 0x1040);
  for (const sim::Cycle delay : {20, 150, 0}) {
    crosser.enqueue_read(delay, 0x40, DataFormat::kWord, 2);
  }
  const bool idle = kernel.run_until_idle(10'000);
  kernel.run(25);  // trailing idle cycles after the last booking
  sim::set_lockstep_for_testing(false);
  EXPECT_TRUE(idle);
  EXPECT_TRUE(crosser.done() && local.done());

  BookingRun run;
  for (std::size_t seg = 0; seg < fabric.segment_count(); ++seg) {
    const SystemBus::BusStats& st = fabric.segment(seg).stats();
    run.counters.insert(run.counters.end(),
                        {st.busy_cycles, st.idle_cycles, st.bridged_in});
  }
  for (const ip::ScriptedMaster* m : {&crosser, &local}) {
    for (const BusTransaction& t : m->stats().responses) {
      run.completed.push_back(t.completed_at);
    }
  }
  run.ticks_dispatched = kernel.ticks_dispatched();
  return run;
}

void expect_booking_exact(std::size_t master_seg, std::size_t slave_seg) {
  for (const bool far_busy : {false, true}) {
    const BookingRun oracle =
        run_booking(/*lockstep=*/true, master_seg, slave_seg, far_busy);
    const BookingRun fast =
        run_booking(/*lockstep=*/false, master_seg, slave_seg, far_busy);
    EXPECT_EQ(oracle.counters[3 * slave_seg + 2], 3u)
        << "every crossing must book the far segment";
    EXPECT_LT(fast.ticks_dispatched * 4, oracle.ticks_dispatched)
        << "the far segment was not left asleep";
    EXPECT_EQ(oracle, fast) << "master_seg=" << master_seg
                            << " slave_seg=" << slave_seg
                            << " far_busy=" << far_busy;
  }
}

TEST(Fabric, BookingOntoALowerIndexSleepingSegmentIsExact) {
  // Segment 1's bus ticks after segment 0's, so lockstep has already
  // executed the hub's cycle when the crossing books it.
  expect_booking_exact(/*master_seg=*/1, /*slave_seg=*/0);
}

TEST(Fabric, BookingOntoAHigherIndexSleepingSegmentIsExact) {
  expect_booking_exact(/*master_seg=*/0, /*slave_seg=*/2);
}

}  // namespace
}  // namespace secbus::bus
