// Multi-segment interconnect fabric.
//
// Generalizes the single shared SystemBus into N bus segments connected by
// Bridge components (NoC-style mesh-of-buses). Masters and slaves attach to
// a *home segment*; the Fabric derives, per segment, an address map that
// routes every remote window onto the bridge one hop closer to the window's
// home (shortest path over the link graph, deterministic tie-break), so a
// transaction crosses bridges hop by hop and the end-to-end latency grows
// with hop count — the scaling dimension the paper's distributed-firewall
// argument is about.
//
// A one-segment topology builds no bridges and degenerates to exactly the
// legacy single-bus system (same component name, same arbitration, same
// timing), which keeps every pre-fabric scenario bit-identical.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bus/bridge.hpp"
#include "bus/system_bus.hpp"
#include "sim/kernel.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::bus {

// Abstract description of the segment graph. Links are bidirectional; the
// fabric instantiates one Bridge per direction actually used by a route.
struct FabricTopology {
  struct Link {
    std::size_t a = 0;
    std::size_t b = 0;
    sim::Cycle hop_latency = 2;
  };

  std::size_t segments = 1;
  std::vector<Link> links;

  // One shared bus (the legacy system).
  [[nodiscard]] static FabricTopology flat();
  // Hub-and-spoke: segment 0 is the hub, segments 1..leaves hang off it.
  [[nodiscard]] static FabricTopology star(std::size_t leaves,
                                           sim::Cycle hop_latency = 2);
  // rows x cols grid of segments, linked to the right/down neighbors.
  [[nodiscard]] static FabricTopology mesh(std::size_t rows, std::size_t cols,
                                           sim::Cycle hop_latency = 2);

  // All link endpoints in range, no self-links, graph connected.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;
};

class Fabric {
 public:
  // Identifies a slave across the whole fabric (index into registration
  // order), as opposed to the per-segment sim::SlaveId.
  using GlobalSlaveId = std::size_t;

  explicit Fabric(const FabricTopology& topo);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size();
  }
  [[nodiscard]] SystemBus& segment(std::size_t i) { return *segments_.at(i); }
  [[nodiscard]] const SystemBus& segment(std::size_t i) const {
    return *segments_.at(i);
  }
  void set_trace(sim::EventTrace* trace) noexcept;

  // --- wiring (construction time only) --------------------------------
  MasterEndpoint& attach_master(std::size_t segment, sim::MasterId id,
                                std::string name);
  GlobalSlaveId add_slave(SlaveDevice& dev, std::size_t home_segment);
  // Maps [base, base+size) to a registered slave fabric-wide. Deferred: the
  // per-segment maps (including bridge routing windows) materialize in
  // finalize().
  void map_region(sim::Addr base, std::uint64_t size, GlobalSlaveId slave,
                  std::string name);
  // Builds the routing: registers bridges and fills every segment's address
  // map. Must be called exactly once, after all map_region() calls and
  // before the first simulated cycle.
  void finalize();

  // Registers every segment with the kernel (tick order = segment order).
  void register_components(sim::SimKernel& kernel);

  // --- simulation state ------------------------------------------------
  void reset();

  // Zeroes every segment's and bridge's statistics without touching the
  // simulation state (phase-boundary metric snapshots).
  void reset_stats() noexcept;

  // Publishes every segment under "bus.seg<i>" and every bridge under
  // "bus.bridge.<name>".
  void contribute_metrics(obs::Registry& reg) const;

  // --- results ----------------------------------------------------------
  // Aggregate occupancy: total busy cycles over total ticked cycles across
  // all segments (equals the segment's own occupancy when there is one).
  [[nodiscard]] double occupancy() const noexcept;
  [[nodiscard]] std::uint64_t transactions() const noexcept;
  [[nodiscard]] std::uint64_t decode_errors() const noexcept;
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept;
  [[nodiscard]] const std::vector<std::unique_ptr<Bridge>>& bridges()
      const noexcept {
    return bridges_;
  }
  // Master stats looked up by name across every segment; nullptr when the
  // master is not attached anywhere.
  [[nodiscard]] const SystemBus::MasterStats* find_master(
      std::string_view name) const noexcept;

  // --- routing queries (placement policies, reports, tests) -------------
  [[nodiscard]] std::size_t hop_count(std::size_t from,
                                      std::size_t to) const;
  [[nodiscard]] std::size_t next_hop(std::size_t from, std::size_t to) const;
  [[nodiscard]] std::size_t home_segment(GlobalSlaveId slave) const;
  // Segment with the largest hop distance from `from` (lowest index wins
  // ties); used to place attackers "as remote as possible" in scenarios.
  [[nodiscard]] std::size_t farthest_segment_from(std::size_t from) const;

 private:
  struct SlaveInfo {
    SlaveDevice* dev = nullptr;
    std::size_t home = 0;
    sim::SlaveId local_id = sim::kInvalidSlave;
  };
  struct PendingRegion {
    sim::Addr base = 0;
    std::uint64_t size = 0;
    GlobalSlaveId slave = 0;
    std::string name;
  };

  void compute_routes();
  // Bridge from `from` toward neighbor `to` (adjacent segments), created
  // and registered as a slave on `from` on first use.
  sim::SlaveId bridge_slave_id(std::size_t from, std::size_t to);

  FabricTopology topo_;
  std::vector<std::unique_ptr<SystemBus>> segments_;
  std::vector<SlaveInfo> slaves_;
  std::vector<PendingRegion> pending_;
  std::vector<std::unique_ptr<Bridge>> bridges_;
  // bridge_ids_[from * N + to] = local slave id of the from->to bridge on
  // segment `from`, or kInvalidSlave when not (yet) instantiated.
  std::vector<sim::SlaveId> bridge_ids_;
  // dist_/next_hop_ are [from * N + to] matrices from per-target BFS.
  std::vector<std::size_t> dist_;
  std::vector<std::size_t> next_hop_;
  // link_latency_[a * N + b] for adjacent pairs.
  std::vector<sim::Cycle> link_latency_;
  bool finalized_ = false;
};

}  // namespace secbus::bus
