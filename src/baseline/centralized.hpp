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
//     channel (kWireLatency each way) and waits; concurrent checks queue.
//
// The interfaces are the distributed design's own firewalls
// (core::LocalFirewall, core::SlaveFirewall) built on the manager as their
// VerdictSource, and the manager decides with the same compiled policies
// (CompiledPolicyIndex::evaluate): only *where* and *when* the check
// happens differs. Under load the manager serializes concurrent checks,
// while the distributed design pays the same check at each interface
// whatever the CPU count (13 cycles on the Section V CPU LF: Table II's 12
// plus one for its fifth rule). scenario_test_paper_claims checks on the
// centralized-scaling builtin that the centralized-minus-distributed latency
// gap grows with the CPU count.
#pragma once

#include "core/config_memory.hpp"
#include "core/security_builder.hpp"
#include "util/stats.hpp"

namespace secbus::baseline {

class CentralizedManager final : public core::VerdictSource {
 public:
  // Control-channel hop between an interface and the manager, each way.
  static constexpr sim::Cycle kWireLatency = 2;

  // `check_cycles` is the same rule-check budget as a local SB's.
  explicit CentralizedManager(
      core::ConfigurationMemory& config_mem,
      sim::Cycle check_cycles = core::kTableIICheckCycles);

  // Evaluates a check for interface `firewall` sent at cycle `now`; the
  // latency runs from `now` to the verdict's arrival back at the interface.
  // The manager is busy until `busy_until()`; arrivals during that window
  // queue (FIFO by arrival cycle — callers within one cycle are ordered by
  // call order, which kernel tick order keeps deterministic).
  core::Verdict check(core::FirewallId firewall, const bus::BusTransaction& t,
                      sim::Cycle now) override;

  [[nodiscard]] sim::Cycle busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] std::uint64_t checks_served() const noexcept { return checks_; }
  // Cycles each check waited for the manager.
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
  sim::Cycle check_cycles_;
  sim::Cycle busy_until_ = 0;
  std::uint64_t checks_ = 0;
  util::RunningStat queue_wait_;
  util::RunningStat total_latency_;
};

}  // namespace secbus::baseline
