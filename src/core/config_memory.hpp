// Configuration Memory — the trusted on-chip store holding Security Policies.
//
// Section IV.B.1: "The Security Policies (SP) associated to a Local Firewall
// are stored in on-chip memories: these memories (called Configuration
// Memories) are considered as trusted units and do not need to be ciphered."
// One ConfigurationMemory instance serves one firewall in hardware; in the
// simulator a single object may hold the policies of several firewalls (it
// is indexed by FirewallId), which models the per-interface BRAMs without
// forcing the SoC wiring to carry N small objects.
//
// Policy updates (the paper's "reconfiguration of security services"
// perspective) are atomic at check granularity: the Security Builder reads
// the policy at the start of a check, so an update between two checks fully
// applies to the next one.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/policy_index.hpp"
#include "core/security_policy.hpp"
#include "sim/types.hpp"

namespace secbus::core {

class ConfigurationMemory {
 public:
  struct Config {
    // Cycles the SB spends fetching the SP; part of the paper's 12-cycle
    // rule-check budget (we default the SB's *total* to 12, of which this
    // many are the SP fetch).
    sim::Cycle read_latency = 2;
  };

  ConfigurationMemory() = default;
  explicit ConfigurationMemory(Config cfg) : cfg_(cfg) {}

  // Installs or replaces a policy. Counts as a policy update (gen bump).
  // The two-argument form keeps the firewall's previously recorded fabric
  // segment (new ids land on segment 0); the three-argument form keys the
  // install by the segment the firewall lives on, which is how a
  // multi-segment fabric keeps its per-segment Configuration Memories
  // attributable.
  void install(FirewallId firewall, SecurityPolicy policy);
  void install(FirewallId firewall, SecurityPolicy policy,
               std::size_t segment);

  // Fabric segment recorded at install time; aborts if the id is unknown.
  [[nodiscard]] std::size_t segment_of(FirewallId firewall) const;
  // Number of policies whose firewall lives on `segment`.
  [[nodiscard]] std::size_t policies_on_segment(std::size_t segment) const noexcept;

  // True when a policy exists for the firewall.
  [[nodiscard]] bool has_policy(FirewallId firewall) const noexcept;

  // Fetches the policy for a firewall; aborts if missing (a firewall without
  // a policy is a wiring bug — the paper's architecture pairs them 1:1).
  [[nodiscard]] const SecurityPolicy& policy(FirewallId firewall) const;

  // The compiled index of that policy, rebuilt on every install(). The SB
  // and the centralized manager decide with it instead of scanning the rule
  // lists; decisions are identical.
  [[nodiscard]] const CompiledPolicyIndex& compiled(FirewallId firewall) const;

  [[nodiscard]] sim::Cycle read_latency() const noexcept { return cfg_.read_latency; }

  // Generation counter bumped on every install; lets components notice
  // reconfiguration (and lets tests assert atomicity).
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  [[nodiscard]] std::size_t policy_count() const noexcept { return policies_.size(); }

  // Total number of segment rules stored (drives the area model's
  // configuration-memory sizing).
  [[nodiscard]] std::size_t total_rules() const noexcept;

 private:
  struct Entry {
    SecurityPolicy policy;
    CompiledPolicyIndex index;
    std::size_t segment = 0;  // fabric segment hosting the firewall
  };

  Config cfg_{};
  std::unordered_map<FirewallId, Entry> policies_;
  std::uint64_t generation_ = 0;
};

}  // namespace secbus::core
