#include "bus/fabric.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::bus {

namespace {

constexpr std::size_t kNoSegment = std::numeric_limits<std::size_t>::max();

}  // namespace

FabricTopology FabricTopology::flat() { return FabricTopology{}; }

FabricTopology FabricTopology::star(std::size_t leaves,
                                    sim::Cycle hop_latency) {
  SECBUS_ASSERT(leaves >= 1, "star topology needs at least one leaf");
  FabricTopology topo;
  topo.segments = 1 + leaves;
  for (std::size_t leaf = 1; leaf <= leaves; ++leaf) {
    topo.links.push_back({0, leaf, hop_latency});
  }
  return topo;
}

FabricTopology FabricTopology::mesh(std::size_t rows, std::size_t cols,
                                    sim::Cycle hop_latency) {
  SECBUS_ASSERT(rows >= 1 && cols >= 1, "mesh needs at least a 1x1 grid");
  FabricTopology topo;
  topo.segments = rows * cols;
  const auto at = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) topo.links.push_back({at(r, c), at(r, c + 1), hop_latency});
      if (r + 1 < rows) topo.links.push_back({at(r, c), at(r + 1, c), hop_latency});
    }
  }
  return topo;
}

bool FabricTopology::validate(std::string* error) const {
  const auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (segments == 0) return fail("topology needs at least one segment");
  for (const Link& link : links) {
    if (link.a >= segments || link.b >= segments) {
      return fail("link endpoint out of range");
    }
    if (link.a == link.b) return fail("self-link");
    if (link.hop_latency < 1) return fail("hop latency must be >= 1 cycle");
  }
  // Connectivity: BFS from segment 0 must reach everything.
  std::vector<char> seen(segments, 0);
  std::deque<std::size_t> queue{0};
  seen[0] = 1;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (const Link& link : links) {
      std::size_t v = kNoSegment;
      if (link.a == u) v = link.b;
      if (link.b == u) v = link.a;
      if (v != kNoSegment && seen[v] == 0) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  if (std::count(seen.begin(), seen.end(), char{1}) !=
      static_cast<std::ptrdiff_t>(segments)) {
    return fail("topology is not connected");
  }
  return true;
}

Fabric::Fabric(const FabricTopology& topo) : topo_(topo) {
  std::string error;
  SECBUS_ASSERT(topo_.validate(&error), "invalid fabric topology");
  const std::size_t n = topo_.segments;
  segments_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The one-segment fabric keeps the legacy bus name so traces (and the
    // topology-equivalence guarantee) carry over unchanged.
    std::string name =
        n == 1 ? std::string("system_bus") : "bus_seg" + std::to_string(i);
    segments_.push_back(std::make_unique<SystemBus>(std::move(name)));
  }
  bridge_ids_.assign(n * n, sim::kInvalidSlave);
  link_latency_.assign(n * n, 0);
  for (const FabricTopology::Link& link : topo_.links) {
    link_latency_[link.a * n + link.b] = link.hop_latency;
    link_latency_[link.b * n + link.a] = link.hop_latency;
  }
  compute_routes();
}

void Fabric::compute_routes() {
  const std::size_t n = segments_.size();
  dist_.assign(n * n, kNoSegment);
  next_hop_.assign(n * n, kNoSegment);

  // Sorted adjacency gives deterministic BFS order (and therefore
  // deterministic equal-length route tie-breaks).
  std::vector<std::vector<std::size_t>> adjacency(n);
  for (const FabricTopology::Link& link : topo_.links) {
    adjacency[link.a].push_back(link.b);
    adjacency[link.b].push_back(link.a);
  }
  for (auto& neighbors : adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }

  // BFS from each target: next_hop_[u][target] is u's neighbor on a
  // shortest path toward `target`.
  for (std::size_t target = 0; target < n; ++target) {
    std::deque<std::size_t> queue{target};
    dist_[target * n + target] = 0;
    next_hop_[target * n + target] = target;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const std::size_t v : adjacency[u]) {
        if (dist_[v * n + target] != kNoSegment) continue;
        dist_[v * n + target] = dist_[u * n + target] + 1;
        next_hop_[v * n + target] = u;
        queue.push_back(v);
      }
    }
  }
}

void Fabric::set_trace(sim::EventTrace* trace) noexcept {
  for (auto& seg : segments_) seg->set_trace(trace);
}

MasterEndpoint& Fabric::attach_master(std::size_t segment, sim::MasterId id,
                                      std::string name) {
  SECBUS_ASSERT(segment < segments_.size(), "attach_master: bad segment");
  return segments_[segment]->attach_master(id, std::move(name));
}

Fabric::GlobalSlaveId Fabric::add_slave(SlaveDevice& dev,
                                        std::size_t home_segment) {
  SECBUS_ASSERT(home_segment < segments_.size(), "add_slave: bad segment");
  SECBUS_ASSERT(!finalized_, "add_slave after finalize");
  SlaveInfo info;
  info.dev = &dev;
  info.home = home_segment;
  info.local_id = segments_[home_segment]->add_slave(dev);
  slaves_.push_back(info);
  return slaves_.size() - 1;
}

void Fabric::map_region(sim::Addr base, std::uint64_t size,
                        GlobalSlaveId slave, std::string name) {
  SECBUS_ASSERT(slave < slaves_.size(), "map_region: unknown global slave");
  SECBUS_ASSERT(!finalized_, "map_region after finalize");
  pending_.push_back(PendingRegion{base, size, slave, std::move(name)});
}

sim::SlaveId Fabric::bridge_slave_id(std::size_t from, std::size_t to) {
  const std::size_t n = segments_.size();
  sim::SlaveId& id = bridge_ids_[from * n + to];
  if (id == sim::kInvalidSlave) {
    Bridge::Config cfg;
    cfg.hop_latency = link_latency_[from * n + to];
    SECBUS_ASSERT(cfg.hop_latency >= 1, "bridge over a non-adjacent pair");
    auto bridge = std::make_unique<Bridge>(
        "bridge_" + std::to_string(from) + "to" + std::to_string(to),
        *segments_[to], cfg);
    id = segments_[from]->add_slave(*bridge);
    bridges_.push_back(std::move(bridge));
  }
  return id;
}

void Fabric::finalize() {
  SECBUS_ASSERT(!finalized_, "fabric finalized twice");
  finalized_ = true;
  const std::size_t n = segments_.size();
  for (const PendingRegion& region : pending_) {
    const SlaveInfo& info = slaves_[region.slave];
    for (std::size_t seg = 0; seg < n; ++seg) {
      if (seg == info.home) {
        segments_[seg]->map_region(region.base, region.size, info.local_id,
                                   region.name);
      } else {
        const std::size_t hop = next_hop_[seg * n + info.home];
        SECBUS_ASSERT(hop != kNoSegment, "no route between segments");
        segments_[seg]->map_region(region.base, region.size,
                                   bridge_slave_id(seg, hop), region.name);
      }
    }
  }
  pending_.clear();
}

void Fabric::register_components(sim::SimKernel& kernel) {
  for (auto& seg : segments_) kernel.add(*seg);
}

void Fabric::reset() {
  for (auto& seg : segments_) seg->reset();
  for (auto& bridge : bridges_) bridge->reset_stats();
}

void Fabric::reset_stats() noexcept {
  for (auto& seg : segments_) seg->reset_stats();
  for (auto& bridge : bridges_) bridge->reset_stats();
}

void Fabric::contribute_metrics(obs::Registry& reg) const {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    segments_[i]->contribute_metrics(reg, "bus.seg" + std::to_string(i));
  }
  for (const auto& bridge : bridges_) {
    bridge->contribute_metrics(
        reg, "bus.bridge." + std::string(bridge->slave_name()));
  }
}

double Fabric::occupancy() const noexcept {
  std::uint64_t busy = 0;
  std::uint64_t total = 0;
  for (const auto& seg : segments_) {
    busy += seg->stats().busy_cycles;
    total += seg->stats().busy_cycles + seg->stats().idle_cycles;
  }
  return total > 0 ? static_cast<double>(busy) / static_cast<double>(total)
                   : 0.0;
}

std::uint64_t Fabric::transactions() const noexcept {
  std::uint64_t n = 0;
  for (const auto& seg : segments_) n += seg->stats().transactions;
  return n;
}

std::uint64_t Fabric::decode_errors() const noexcept {
  std::uint64_t n = 0;
  for (const auto& seg : segments_) n += seg->stats().decode_errors;
  for (const auto& bridge : bridges_) n += bridge->stats().decode_errors;
  return n;
}

std::uint64_t Fabric::bytes_transferred() const noexcept {
  std::uint64_t n = 0;
  for (const auto& seg : segments_) n += seg->stats().bytes_transferred;
  return n;
}

const SystemBus::MasterStats* Fabric::find_master(
    std::string_view name) const noexcept {
  for (const auto& seg : segments_) {
    for (const SystemBus::MasterStats& ms : seg->master_stats()) {
      if (ms.name == name) return &ms;
    }
  }
  return nullptr;
}

std::size_t Fabric::hop_count(std::size_t from, std::size_t to) const {
  const std::size_t n = segments_.size();
  SECBUS_ASSERT(from < n && to < n, "hop_count: bad segment");
  return dist_[from * n + to];
}

std::size_t Fabric::next_hop(std::size_t from, std::size_t to) const {
  const std::size_t n = segments_.size();
  SECBUS_ASSERT(from < n && to < n, "next_hop: bad segment");
  return next_hop_[from * n + to];
}

std::size_t Fabric::home_segment(GlobalSlaveId slave) const {
  SECBUS_ASSERT(slave < slaves_.size(), "home_segment: unknown slave");
  return slaves_[slave].home;
}

std::size_t Fabric::farthest_segment_from(std::size_t from) const {
  std::size_t best = from;
  std::size_t best_dist = 0;
  for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
    const std::size_t d = hop_count(from, seg);
    if (d != kNoSegment && d > best_dist) {
      best = seg;
      best_dist = d;
    }
  }
  return best;
}

}  // namespace secbus::bus
