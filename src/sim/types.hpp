// Fundamental simulation types shared by every subsystem.
#pragma once

#include <cstdint>
#include <limits>

namespace secbus::sim {

// Simulation time in bus-clock cycles. All latencies in the model — firewall
// checks, memory access, crypto cores — are expressed in cycles of the single
// system-bus clock domain, as in the paper's Table II.
using Cycle = std::uint64_t;

inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

// Identifies a component attached to the interconnect. Master ids identify
// request initiators (processors, dedicated IPs, the centralized manager);
// slave ids identify targets (memories, IP register files).
using MasterId = std::uint16_t;
using SlaveId = std::uint16_t;

inline constexpr MasterId kInvalidMaster = 0xFFFF;
inline constexpr SlaveId kInvalidSlave = 0xFFFF;

// Unique, monotonically increasing transaction sequence number; assigned by
// the bus fabric when a transaction is created so traces can be correlated.
using TransactionId = std::uint64_t;

// Bus address: the case-study SoC uses a 32-bit address map (MicroBlaze), but
// we keep 64-bit addresses internally so larger experiments don't overflow.
using Addr = std::uint64_t;

// Clock domain descriptor. The paper's ML605 system runs the bus and the
// firewalls in one domain; 100 MHz is the standard MicroBlaze/PLB clock for
// that board and is what makes the paper's Table II throughputs
// (450 Mb/s CC, 131 Mb/s IC) line up with its cycle counts.
struct ClockDomain {
  double freq_hz = 100e6;

  [[nodiscard]] constexpr double period_ns() const noexcept {
    return 1e9 / freq_hz;
  }
  [[nodiscard]] constexpr double cycles_to_ns(Cycle c) const noexcept {
    return static_cast<double>(c) * period_ns();
  }
  [[nodiscard]] constexpr double cycles_to_us(Cycle c) const noexcept {
    return cycles_to_ns(c) / 1e3;
  }
  // Sustained throughput in Mb/s for `bits` transferred over `cycles`.
  [[nodiscard]] constexpr double mbps(double bits, double cycles) const noexcept {
    if (cycles <= 0.0) return 0.0;
    return bits / cycles * freq_hz / 1e6;
  }
  // Bits-per-cycle needed to sustain `mbps` at this clock.
  [[nodiscard]] constexpr double bits_per_cycle_for_mbps(double target_mbps) const noexcept {
    return target_mbps * 1e6 / freq_hz;
  }

  constexpr bool operator==(const ClockDomain&) const = default;
};

}  // namespace secbus::sim
