// Security Builder (SB) — Section IV.B.1.
//
// "When the secpol_req signal is received by SB, it reads the associated SP
// from the Configuration Memory. Then, SP parameters (security rules) are
// sent to specific checking modules that are embedded in the SB resource."
//
// The checking modules (segment match, read/write direction, data format)
// are CompiledPolicyIndex::evaluate over the policy the Configuration Memory
// compiled at install time; the SB adds the check's timing.
//
// Timing: the paper's Table II measures the full security-rules check at 12
// cycles. We decompose that into the Configuration Memory SP fetch plus the
// checker pipeline, and scale with policy size beyond a calibration point:
// the checkers compare segments in pairs per cycle, so policies larger than
// the calibrated 4 segments add ceil(extra/2) cycles — this drives the
// policy-aggressiveness ablation the paper flags for future work
// ("A more aggressive security policy will lead to a larger cost").
#pragma once

#include <cstdint>

#include "bus/transaction.hpp"
#include "core/config_memory.hpp"
#include "core/security_policy.hpp"

namespace secbus::core {

// Total cycles of a rule check at the calibration point (Table II).
inline constexpr sim::Cycle kTableIICheckCycles = 12;
// Policy size the Table II budget was calibrated at.
inline constexpr std::size_t kCalibratedRules = 4;
// Extra segments checked per additional cycle (hardware comparator pairs).
inline constexpr std::size_t kRulesPerExtraCycle = 2;

// A check's outcome and the cycles it took.
struct Verdict {
  SecurityPolicy::Decision decision;
  sim::Cycle latency = 0;
};

// A verdict source shared by many firewalls (the centralized baseline's
// manager). A firewall built on one asks it instead of its own SB; `now` is
// the cycle the request is sent, and the latency counts from there.
class VerdictSource {
 public:
  virtual Verdict check(FirewallId firewall, const bus::BusTransaction& t,
                        sim::Cycle now) = 0;

 protected:
  ~VerdictSource() = default;
};

class SecurityBuilder {
 public:
  SecurityBuilder(ConfigurationMemory& config_mem, FirewallId firewall,
                  sim::Cycle base_check_cycles = kTableIICheckCycles);

  // Runs the full check for one transaction-shaped access on behalf of
  // `thread` (thread-specific security selects the rule set). Purely
  // functional + latency computation; the caller (firewall) is responsible
  // for modeling the elapsed cycles.
  [[nodiscard]] Verdict run_check(bus::BusOp op, sim::Addr addr,
                                  std::uint64_t len, bus::DataFormat fmt,
                                  bus::ThreadId thread = 0);

  // Latency a check takes under the current policy.
  [[nodiscard]] sim::Cycle check_latency() const;

  [[nodiscard]] FirewallId firewall() const noexcept { return firewall_; }

 private:
  // Re-reads the compiled policy from the Configuration Memory when its
  // generation moved (policy install/reconfiguration). Checks between
  // installs touch only the cached pointer — no map lookup, no rule-count
  // recomputation per access.
  void refresh_policy_cache() const;

  ConfigurationMemory* config_mem_;
  FirewallId firewall_;
  sim::Cycle base_check_cycles_;

  mutable const CompiledPolicyIndex* compiled_ = nullptr;
  mutable sim::Cycle cached_latency_ = 0;
  mutable std::uint64_t cached_generation_ = ~std::uint64_t{0};
};

}  // namespace secbus::core
