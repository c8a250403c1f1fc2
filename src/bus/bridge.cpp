#include "bus/bridge.hpp"

#include "bus/address_map.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::bus {

namespace {

// Crossing-depth guard: routing tables are spanning trees toward each
// slave's home segment, so a chain can never be longer than the segment
// count. A deeper recursion means the Fabric built a routing loop.
constexpr int kMaxCrossingDepth = 64;
thread_local int g_crossing_depth = 0;

struct DepthGuard {
  DepthGuard() {
    ++g_crossing_depth;
    SECBUS_ASSERT(g_crossing_depth <= kMaxCrossingDepth,
                  "bridge routing loop: crossing depth exceeded");
  }
  ~DepthGuard() { --g_crossing_depth; }
};

}  // namespace

Bridge::Bridge(std::string name, SystemBus& far, Config cfg)
    : name_(std::move(name)), far_(&far), cfg_(cfg) {
  SECBUS_ASSERT(cfg_.hop_latency >= 1, "bridge hop latency must be >= 1 cycle");
}

AccessResult Bridge::access(BusTransaction& t, sim::Cycle now) {
  DepthGuard guard;

  // The crossing reads the far segment's countdown (free_at) and books it,
  // which changes how its skipped cycles split into busy and idle: bring it
  // up to date first.
  if (sim::SimKernel* kernel = far_->kernel()) kernel->notify(*far_);

  // Queue after the far segment's already-booked crossings. The wait is
  // charged to the *origin* hold only; it is never booked on the far side
  // (see SystemBus::book on why that must not compound).
  const sim::Cycle start = far_->free_at(now);
  const sim::Cycle wait = start - now;

  const Region* region =
      far_->address_map().region_for_range(t.addr, t.payload_bytes());
  if (region == nullptr) {
    // The near-side window admitted the address but the far side does not
    // map it (a hole in a coarse routing window): error response after the
    // crossing cost.
    ++stats_.decode_errors;
    return AccessResult{wait + cfg_.hop_latency + 1, TransStatus::kDecodeError};
  }

  SlaveDevice* dev = far_->slave_device(region->slave);
  SECBUS_ASSERT(dev != nullptr, "far segment maps a region to no device");
  const AccessResult far_res = dev->access(t, start + cfg_.hop_latency);
  SECBUS_ASSERT(far_res.latency >= 1, "far access latency must be >= 1 cycle");

  const sim::Cycle service = cfg_.hop_latency + far_res.latency;
  ++stats_.forwarded;
  stats_.far_wait.add(static_cast<double>(wait));
  stats_.service.add(static_cast<double>(service));
  if (far_res.status == TransStatus::kOk) {
    stats_.bytes_forwarded += t.payload_bytes();
  }
  // Book the crossing's service window, data beats included, so far-side
  // masters contend with bridged traffic while it is actually crossing.
  far_->book(start, start + service + t.burst_len);
  far_->note_bridged_in(
      far_res.status == TransStatus::kOk ? t.payload_bytes() : 0);

  return AccessResult{wait + service, far_res.status};
}

void Bridge::contribute_metrics(obs::Registry& reg,
                                const std::string& prefix) const {
  reg.counter(prefix + ".forwarded", stats_.forwarded);
  reg.counter(prefix + ".decode_errors", stats_.decode_errors);
  reg.counter(prefix + ".bytes_forwarded", stats_.bytes_forwarded);
  reg.stat(prefix + ".far_wait", stats_.far_wait);
  reg.stat(prefix + ".service", stats_.service);
}

}  // namespace secbus::bus
