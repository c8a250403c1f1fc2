// Local Firewall (LF) — Section IV.B.1 and Figure 1.
//
// Structure mirrors the paper's block diagram:
//   * LF Communication Block (LFCB): receives/transmits the bus-protocol
//     signals and raises `secpol_req` — here, the endpoint plumbing that
//     accepts transactions from the IP and forwards them bus-ward;
//   * Security Builder (SB): fetches the SP from the Configuration Memory
//     and drives the checking modules;
//   * Firewall Interface (FI): the datapath gate that lets checked data
//     through or discards it on `alert_signals`.
//
// Master-side firewalls (in front of processors and other bus masters) are
// clocked components: a transaction leaving the IP is held for the SB check
// latency, then either forwarded to the bus or discarded with an error
// response so the IP never deadlocks. Write data is therefore checked
// *before it reaches the bus* (containment: a hijacked IP's traffic dies in
// its own interface), and read data returning from the bus is gated by the
// FI before reaching the IP, using the decision latched at request time.
//
// Slave-side firewalls (in front of memories / slave IPs) are SlaveDevice
// decorators: the check happens between bus delivery and the device, adding
// the SB latency to the access.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "bus/ports.hpp"
#include "core/alert.hpp"
#include "core/security_builder.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::core {

struct FirewallStats {
  std::uint64_t secpol_reqs = 0;   // checks requested by the LFCB
  std::uint64_t passed = 0;        // transactions forwarded by the FI
  std::uint64_t blocked = 0;       // transactions discarded by the FI
  std::uint64_t check_cycles = 0;  // cycles spent in SB checks
  std::uint64_t responses_gated = 0;  // read data gated back to the IP
  std::array<std::uint64_t, kViolationKindCount> violations{};  // by Violation

  void count_violation(Violation v) noexcept {
    violations[static_cast<std::size_t>(v)] += 1;
  }
  [[nodiscard]] std::uint64_t violation_count(Violation v) const noexcept {
    return violations[static_cast<std::size_t>(v)];
  }
};

// Publishes a FirewallStats under `prefix` ("<prefix>.secpol_reqs",
// "<prefix>.violations.rw_violation", ...) — shared by every firewall
// flavor so their metric shapes stay identical.
void contribute_firewall_metrics(obs::Registry& reg, const std::string& prefix,
                                 const FirewallStats& stats);

// The FI datapath gate: applies a latched check decision to a transaction.
// Kept as its own object (rather than an if in the firewall) so the gate's
// pass/discard activity is observable exactly like the alert_signals /
// check_results wires in Figure 1.
class FirewallInterface {
 public:
  struct GateResult {
    bool forwarded = false;
  };

  GateResult apply(const SecurityPolicy::Decision& decision) noexcept {
    if (decision.allowed) {
      ++forwarded_;
      return {true};
    }
    ++discarded_;
    return {false};
  }

  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t discarded() const noexcept { return discarded_; }
  void reset() noexcept { forwarded_ = discarded_ = 0; }

 private:
  std::uint64_t forwarded_ = 0;
  std::uint64_t discarded_ = 0;
};

// Master-side Local Firewall.
class LocalFirewall final : public sim::Component {
 public:
  struct Config {
    SecurityBuilder::Config sb;
    // When true the SB re-checks read responses in full (paranoid mode);
    // default is the FI gating reads with the request-time decision.
    bool recheck_responses = false;
    // DoS throttle (Section III.A "injecting dummy data to create
    // overwhelming traffic"): at most `rate_limit_max` transactions are
    // forwarded per `rate_limit_window` cycles; excess traffic is discarded
    // with Violation::kRateLimited. Window 0 disables the throttle.
    sim::Cycle rate_limit_window = 0;
    std::uint32_t rate_limit_max = 0;
  };

  LocalFirewall(std::string name, FirewallId id, ConfigurationMemory& config_mem,
                SecurityEventLog& log);
  LocalFirewall(std::string name, FirewallId id, ConfigurationMemory& config_mem,
                SecurityEventLog& log, Config cfg);

  // IP-facing endpoint: the IP pushes requests and pops responses here.
  [[nodiscard]] bus::MasterEndpoint& ip_side() noexcept { return ip_side_; }

  // Bus-facing endpoint obtained from SystemBus::attach_master.
  void connect_bus(bus::MasterEndpoint& bus_endpoint) noexcept {
    bus_side_ = &bus_endpoint;
    bus_side_->response.set_consumer(*this);
  }

  void set_trace(sim::EventTrace* trace) noexcept { trace_ = trace; }

  void tick(sim::Cycle now) override;
  // Wakes on the last cycle of the SB check in flight, or when a response
  // or request is waiting; skipped cycles count the check down.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  void skip(sim::Cycle now, sim::Cycle n) override;
  void reset() override;

  [[nodiscard]] const FirewallStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SecurityBuilder& builder() const noexcept { return sb_; }
  [[nodiscard]] FirewallId id() const noexcept { return id_; }
  // True when no transaction is being checked and no queue holds data.
  [[nodiscard]] bool idle() const noexcept;

  // Zeroes the check/gate statistics (including the FI's and SB's) without
  // touching queues or the check in flight. reset() implies it.
  void reset_stats() noexcept;

  // Publishes the FirewallStats under `prefix`.
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  void start_check(sim::Cycle now);
  void finish_check(sim::Cycle now);
  void pump_responses(sim::Cycle now);

  FirewallId id_;
  Config cfg_;
  SecurityBuilder sb_;
  FirewallInterface fi_;
  SecurityEventLog* log_;
  sim::EventTrace* trace_ = nullptr;

  bus::MasterEndpoint ip_side_;
  bus::MasterEndpoint* bus_side_ = nullptr;

  // One check in flight at a time (single SB pipeline).
  std::optional<bus::BusTransaction> in_check_;
  SecurityBuilder::Result check_result_;
  sim::Cycle check_remaining_ = 0;

  // DoS throttle state.
  sim::Cycle rate_window_start_ = 0;
  std::uint32_t rate_window_count_ = 0;

  FirewallStats stats_;
};

// Slave-side Local Firewall: decorates the protected device.
class SlaveFirewall final : public bus::SlaveDevice {
 public:
  SlaveFirewall(std::string name, FirewallId id, ConfigurationMemory& config_mem,
                SecurityEventLog& log, bus::SlaveDevice& inner);
  SlaveFirewall(std::string name, FirewallId id, ConfigurationMemory& config_mem,
                SecurityEventLog& log, bus::SlaveDevice& inner,
                SecurityBuilder::Config sb_cfg);

  bus::AccessResult access(bus::BusTransaction& t, sim::Cycle now) override;
  [[nodiscard]] std::string_view slave_name() const override { return name_; }

  void set_trace(sim::EventTrace* trace) noexcept { trace_ = trace; }

  [[nodiscard]] const FirewallStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SecurityBuilder& builder() const noexcept { return sb_; }
  [[nodiscard]] FirewallId id() const noexcept { return id_; }

  // Zeroes the check/gate statistics (including the FI's and SB's).
  void reset_stats() noexcept;

  // Publishes the FirewallStats under `prefix`.
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  std::string name_;
  FirewallId id_;
  SecurityBuilder sb_;
  FirewallInterface fi_;
  SecurityEventLog* log_;
  bus::SlaveDevice* inner_;
  sim::EventTrace* trace_ = nullptr;
  FirewallStats stats_;
};

}  // namespace secbus::core
