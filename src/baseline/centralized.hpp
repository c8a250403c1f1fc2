// Centralized security baseline (SECA-style, Coburn et al. [1]).
//
// The related work the paper positions against routes every security
// decision through one global manager (SECA's Security Enforcement Module;
// Evain et al.'s global manager). We make that alternative executable so the
// distributed-vs-centralized claim is measured rather than cited:
//
//   * one CentralizedManager holds all policies and evaluates one check at a
//     time (it is a single hardware block);
//   * every protected interface sends its check over a shared control
//     channel (`wire_latency` each way) and waits; concurrent checks queue.
//
// The functional decisions are identical to the distributed firewalls' —
// same policies, same checkers — only *where* and *when* the check happens
// differs. Under load the manager serializes concurrent checks, while the
// distributed design pays the same check at each interface whatever the CPU
// count (13 cycles on the Section V CPU LF: Table II's 12 plus one for its
// fifth rule). scenario_test_paper_claims checks on the centralized-scaling
// builtin that the centralized-minus-distributed latency gap grows with the
// CPU count.
#pragma once

#include <optional>
#include <string>

#include "bus/ports.hpp"
#include "core/alert.hpp"
#include "core/config_memory.hpp"
#include "core/local_firewall.hpp"
#include "core/security_builder.hpp"
#include "sim/component.hpp"
#include "util/stats.hpp"

namespace secbus::baseline {

class CentralizedManager {
 public:
  struct Config {
    sim::Cycle check_cycles = 12;  // same rule-check budget as a local SB
    sim::Cycle wire_latency = 2;   // control-channel hop, each way
  };

  struct Outcome {
    core::SecurityPolicy::Decision decision;
    sim::Cycle latency = 0;     // request -> decision available at requester
    sim::Cycle queue_wait = 0;  // cycles spent waiting for the manager
  };

  CentralizedManager(core::ConfigurationMemory& config_mem, Config cfg);
  explicit CentralizedManager(core::ConfigurationMemory& config_mem);

  // Evaluates a check for interface `id` arriving at cycle `now`. The
  // manager is busy until `busy_until()`; arrivals during that window queue
  // (FIFO by arrival cycle — callers within one cycle are ordered by call
  // order, which kernel tick order keeps deterministic).
  Outcome check(core::FirewallId id, bus::BusOp op, sim::Addr addr,
                std::uint64_t len, bus::DataFormat fmt, sim::Cycle now,
                bus::ThreadId thread = 0);

  [[nodiscard]] sim::Cycle busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] std::uint64_t checks_served() const noexcept { return checks_; }
  [[nodiscard]] const util::RunningStat& queue_wait() const noexcept {
    return queue_wait_;
  }
  [[nodiscard]] const util::RunningStat& total_latency() const noexcept {
    return total_latency_;
  }

  void reset();

  // Zeroes the accounting only; busy_until_ is simulation state and is
  // left alone so a mid-run stats reset cannot alter check timing.
  void reset_stats() noexcept {
    checks_ = 0;
    queue_wait_.reset();
    total_latency_.reset();
  }

 private:
  core::ConfigurationMemory* config_mem_;
  Config cfg_;
  sim::Cycle busy_until_ = 0;
  std::uint64_t checks_ = 0;
  util::RunningStat queue_wait_;
  util::RunningStat total_latency_;
};

// Master-side gate using the central manager instead of a local SB.
// Drop-in replacement for core::LocalFirewall in the baseline SoC wiring.
class CentralizedMasterGate final : public sim::Component {
 public:
  CentralizedMasterGate(std::string name, core::FirewallId id,
                        CentralizedManager& manager, core::SecurityEventLog& log);

  [[nodiscard]] bus::MasterEndpoint& ip_side() noexcept { return ip_side_; }
  void connect_bus(bus::MasterEndpoint& bus_endpoint) noexcept {
    bus_side_ = &bus_endpoint;
    bus_side_->response.set_consumer(*this);
  }

  void tick(sim::Cycle now) override;
  // Same wake/skip rule as core::LocalFirewall: the manager's verdict
  // latency counts down.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  void skip(sim::Cycle now, sim::Cycle n) override;
  void reset() override;

  [[nodiscard]] const core::FirewallStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  core::FirewallId id_;
  CentralizedManager* manager_;
  core::SecurityEventLog* log_;
  bus::MasterEndpoint ip_side_;
  bus::MasterEndpoint* bus_side_ = nullptr;

  std::optional<bus::BusTransaction> in_check_;
  core::SecurityPolicy::Decision decision_;
  sim::Cycle check_remaining_ = 0;
  core::FirewallStats stats_;
};

// Slave-side gate using the central manager; decorator like SlaveFirewall.
class CentralizedSlaveGate final : public bus::SlaveDevice {
 public:
  CentralizedSlaveGate(std::string name, core::FirewallId id,
                       CentralizedManager& manager, core::SecurityEventLog& log,
                       bus::SlaveDevice& inner);

  bus::AccessResult access(bus::BusTransaction& t, sim::Cycle now) override;
  [[nodiscard]] std::string_view slave_name() const override { return name_; }

  [[nodiscard]] const core::FirewallStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  std::string name_;
  core::FirewallId id_;
  CentralizedManager* manager_;
  core::SecurityEventLog* log_;
  bus::SlaveDevice* inner_;
  core::FirewallStats stats_;
};

}  // namespace secbus::baseline
