// Local Firewall (LF) — Section IV.B.1 and Figure 1.
//
// Structure mirrors the paper's block diagram:
//   * LF Communication Block (LFCB): receives/transmits the bus-protocol
//     signals and raises `secpol_req` — here, the endpoint plumbing that
//     accepts transactions from the IP and forwards them bus-ward;
//   * Security Builder (SB): fetches the SP from the Configuration Memory
//     and drives the checking modules;
//   * Firewall Interface (FI): the datapath gate that lets checked data
//     through or discards it on `alert_signals` — the forward/discard branch
//     at the end of a check, counted in FirewallStats::passed/blocked.
//
// Master-side firewalls (in front of processors and other bus masters) are
// clocked components: a transaction leaving the IP is held for the check
// latency, then either forwarded to the bus or discarded with an error
// response so the IP never deadlocks. Write data is therefore checked
// *before it reaches the bus* (containment: a hijacked IP's traffic dies in
// its own interface); read data returning from the bus flows back to the IP
// on the strength of the request-time decision. Nothing is checked on the
// way back, so the response gate is a delivery cycle, not a tick: the bus
// hands each response straight to the IP-side channel (bus::ResponseGate),
// ready at the cycle the FI passes it on plus the hop to the IP, and the
// firewall counts it as gated once its own clock passes the gate cycle.
//
// Slave-side firewalls (in front of memories / slave IPs) are SlaveDevice
// decorators: the check happens between bus delivery and the device, adding
// the check latency to the access (the device itself is handed the request
// cycle). In front of the external DDR the device is the Local Ciphering
// Firewall's datapath (core/ciphering_firewall.hpp); when it reports an
// integrity failure, the slave firewall raises the alert.
//
// Both serve both security modes. Under distributed security the verdict
// comes from the firewall's own SB; under the centralized baseline it comes
// from a shared VerdictSource (baseline::CentralizedManager), and the rest —
// queue, forward/discard, alert, stats — is the same code.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "bus/ports.hpp"
#include "core/alert.hpp"
#include "core/security_builder.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"
#include "util/ring.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::core {

struct FirewallStats {
  std::uint64_t secpol_reqs = 0;   // checks requested by the LFCB
  std::uint64_t passed = 0;        // transactions forwarded by the FI
  std::uint64_t blocked = 0;       // transactions discarded by the FI
  std::uint64_t check_cycles = 0;  // cycles spent waiting for verdicts
  std::uint64_t responses_gated = 0;  // bus responses passed to the IP
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

// Master-side firewall options. Declared outside LocalFirewall so the
// constructor can default it.
struct LocalFirewallConfig {
  // SB rule-check budget at the Table II calibration point.
  sim::Cycle check_cycles = kTableIICheckCycles;
  // DoS throttle (Section III.A "injecting dummy data to create
  // overwhelming traffic"): at most `rate_limit_max` transactions are
  // forwarded per `rate_limit_window` cycles; excess traffic is discarded
  // with Violation::kRateLimited. Window 0 disables the throttle.
  sim::Cycle rate_limit_window = 0;
  std::uint32_t rate_limit_max = 0;
};

// Master-side Local Firewall.
class LocalFirewall final : public sim::Component, public bus::ResponseGate {
 public:
  using Config = LocalFirewallConfig;

  // Distributed security: the firewall's own SB checks every request.
  LocalFirewall(std::string name, FirewallId id, ConfigurationMemory& config_mem,
                SecurityEventLog& log, Config cfg = {});
  // Centralized baseline: every request is checked by `remote`, with the
  // default Config (no throttle).
  LocalFirewall(std::string name, FirewallId id, VerdictSource& remote,
                SecurityEventLog& log);

  // IP-facing endpoint: the IP pushes requests and pops responses here.
  [[nodiscard]] bus::MasterEndpoint& ip_side() noexcept { return ip_side_; }

  // Bus-facing endpoint obtained from SystemBus::attach_master; the bus
  // then delivers its responses through this firewall's gate.
  void connect_bus(bus::MasterEndpoint& bus_endpoint) noexcept {
    bus_side_ = &bus_endpoint;
    bus_side_->gate = this;
  }

  void set_trace(sim::EventTrace* trace) noexcept { trace_ = trace; }

  // The gate acts in the bus's completion cycle if the firewall ticks after
  // the bus, else one cycle later; the IP sees the response at that gate
  // cycle, or one later if it ticks before the firewall. With no consumer
  // registered on the IP side (a test taking responses by hand), the
  // response is ready at the gate cycle and the firewall wakes then.
  void pass_response(bus::TransactionChannel& from, const sim::Component& bus,
                     sim::Cycle now) override;

  void tick(sim::Cycle now) override;
  // Wakes on the cycle the verdict in flight is acted on, or when a request
  // is waiting (and at a gate cycle when the IP side has no consumer).
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  // Counts the responses whose gate cycles it passes.
  void skip(sim::Cycle now, sim::Cycle n) override;
  void reset() override;

  [[nodiscard]] const FirewallStats& stats() const noexcept { return stats_; }
  // The firewall's own SB; null when its verdicts come from a VerdictSource.
  [[nodiscard]] const SecurityBuilder* builder() const noexcept {
    return sb_.has_value() ? &*sb_ : nullptr;
  }
  [[nodiscard]] FirewallId id() const noexcept { return id_; }

  // Zeroes the check/gate statistics without touching queues or the check
  // in flight. reset() implies it.
  void reset_stats() noexcept { stats_ = {}; }

  // Publishes the FirewallStats under `prefix`.
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  void start_check(sim::Cycle now);
  void finish_check(sim::Cycle now);
  // Counts the responses whose gate cycle precedes `end` as gated.
  void count_gated(sim::Cycle end) noexcept;

  FirewallId id_;
  Config cfg_;
  std::optional<SecurityBuilder> sb_;
  VerdictSource* remote_ = nullptr;
  SecurityEventLog* log_;
  sim::EventTrace* trace_ = nullptr;

  bus::MasterEndpoint ip_side_;
  bus::MasterEndpoint* bus_side_ = nullptr;

  // One check in flight at a time (single SB pipeline), acted on at
  // `act_at_`. The transaction under check stays at the front of the
  // IP-side request queue until the verdict hands it on.
  bool checking_ = false;
  Verdict verdict_;
  sim::Cycle act_at_ = 0;

  // DoS throttle state.
  sim::Cycle rate_window_start_ = 0;
  std::uint32_t rate_window_count_ = 0;

  // Gate cycles of the responses delivered but not yet counted, ascending.
  util::Ring<sim::Cycle> gate_cycles_;

  FirewallStats stats_;
};

// Slave-side Local Firewall: decorates the protected device.
class SlaveFirewall final : public bus::SlaveDevice {
 public:
  // Distributed security: the firewall's own SB checks every access.
  SlaveFirewall(std::string name, FirewallId id, ConfigurationMemory& config_mem,
                SecurityEventLog& log, bus::SlaveDevice& inner,
                sim::Cycle check_cycles = kTableIICheckCycles);
  // Centralized baseline: every access is checked by `remote`.
  SlaveFirewall(std::string name, FirewallId id, VerdictSource& remote,
                SecurityEventLog& log, bus::SlaveDevice& inner);

  bus::AccessResult access(bus::BusTransaction& t, sim::Cycle now) override;
  [[nodiscard]] std::string_view slave_name() const override { return name_; }

  void set_trace(sim::EventTrace* trace) noexcept { trace_ = trace; }

  [[nodiscard]] const FirewallStats& stats() const noexcept { return stats_; }
  [[nodiscard]] FirewallId id() const noexcept { return id_; }

  void reset_stats() noexcept { stats_ = {}; }

  // Publishes the FirewallStats under `prefix`.
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  // Counts `v`, logs the alert and traces it (after the discard, when the
  // access was `discarded`), stamped at `now`.
  void raise_alert(sim::Cycle now, Violation v, const bus::BusTransaction& t,
                   bool discarded);

  std::string name_;
  FirewallId id_;
  std::optional<SecurityBuilder> sb_;
  VerdictSource* remote_ = nullptr;
  SecurityEventLog* log_;
  bus::SlaveDevice* inner_;
  sim::EventTrace* trace_ = nullptr;
  FirewallStats stats_;
};

}  // namespace secbus::core
