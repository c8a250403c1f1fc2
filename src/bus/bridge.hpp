// Segment-to-segment bridge for the interconnect fabric.
//
// A Bridge is the slave-side of one fabric link: it is registered as a
// SlaveDevice on its *near* segment (the Fabric maps the address windows of
// every remote slave reachable through it onto the bridge), and forwards
// matching transactions into its *far* segment. Forwarding models a
// circuit-switched crossing, which is the natural generalization of this
// bus's "held for the whole transaction" timing:
//
//   * the bridge queues after the far segment's already-booked crossings
//     (SystemBus::free_at), charging the wait to the origin's hold,
//   * pays its own arbitration/address latency (`hop_latency`),
//   * resolves the far segment's address map — possibly hitting *another*
//     bridge there, which recurses hop by hop toward the slave's home
//     segment — and performs the slave access,
//   * and books the crossing's service window on the far segment, so
//     far-side masters observe the contention while it is crossing.
//
// The originating segment is held for the summed latency exactly as it
// would be for a local slave, so a one-segment fabric (no bridges) is
// bit-identical to the legacy single SystemBus.
#pragma once

#include <string>
#include <string_view>

#include "bus/ports.hpp"
#include "bus/system_bus.hpp"
#include "util/stats.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::bus {

class Bridge final : public SlaveDevice {
 public:
  struct Config {
    // Re-arbitration + address-phase cost of entering the far segment.
    sim::Cycle hop_latency = 2;
  };

  struct Stats {
    std::uint64_t forwarded = 0;      // transactions pushed into the far side
    std::uint64_t decode_errors = 0;  // window hit near-side, miss far-side
    std::uint64_t bytes_forwarded = 0;
    util::RunningStat far_wait;  // cycles stalled waiting for the far segment
    util::RunningStat service;   // hop + far-side latency per crossing
  };

  Bridge(std::string name, SystemBus& far) : Bridge(std::move(name), far, Config()) {}
  Bridge(std::string name, SystemBus& far, Config cfg);

  AccessResult access(BusTransaction& t, sim::Cycle now) override;
  [[nodiscard]] std::string_view slave_name() const override { return name_; }
  [[nodiscard]] bool is_bridge() const noexcept override { return true; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  void reset_stats() noexcept { stats_ = {}; }

  // Publishes crossing counters under `prefix` ("<prefix>.forwarded", ...).
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  std::string name_;
  SystemBus* far_;
  Config cfg_;
  Stats stats_;
};

}  // namespace secbus::bus
