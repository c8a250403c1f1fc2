#include "scenario/registry.hpp"

#include "soc/presets.hpp"

namespace secbus::scenario {

namespace {

ScenarioSpec base_spec(const char* name, const char* description,
                       soc::SocConfig cfg, sim::Cycle max_cycles) {
  ScenarioSpec spec;
  spec.name = name;
  spec.description = description;
  spec.soc = cfg;
  spec.max_cycles = max_cycles;
  return spec;
}

std::vector<NamedScenario> build_catalog() {
  std::vector<NamedScenario> catalog;

  // --- baselines (Table I / Table II reference points) -------------------
  {
    NamedScenario s;
    s.spec = base_spec("section5",
                       "Paper case study: 3 CPUs + DMA, distributed "
                       "firewalls, full external-memory protection",
                       soc::section5_config(), 30'000'000);
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.spec = base_spec("baseline-none",
                       "Same system without any protection (Table I "
                       "'generic w/o firewalls')",
                       soc::unprotected_config(), 30'000'000);
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.spec = base_spec("baseline-centralized",
                       "SECA-like centralized checker baseline",
                       soc::centralized_config(), 30'000'000);
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.protection = soc::ProtectionLevel::kCipherOnly;
    s.spec = base_spec("cipher-only",
                       "Distributed firewalls with confidentiality-only "
                       "external memory (paper's 'only ciphered' case)",
                       cfg, 30'000'000);
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.spec = base_spec("protection-ladder",
                       "Section-V workload swept over the external-memory "
                       "protection levels (Table II overhead ladder)",
                       soc::section5_config(), 30'000'000);
    s.axes.protection = {soc::ProtectionLevel::kPlaintext,
                         soc::ProtectionLevel::kCipherOnly,
                         soc::ProtectionLevel::kFull};
    catalog.push_back(std::move(s));
  }

  // --- attacks (Section III threat model) --------------------------------
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.transactions_per_cpu = 40;
    s.spec = base_spec("hijack",
                       "Hijacked IP probes out-of-policy addresses; its own "
                       "LF must contain every attempt (Section III.C)",
                       cfg, 2'000'000);
    s.spec.attack.kind = AttackKind::kHijack;
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.transactions_per_cpu = 40;
    s.spec = base_spec("external-attacker",
                       "Memory-pin spoofing attack swept over protection "
                       "levels: full protection detects, plaintext admits",
                       cfg, 2'000'000);
    s.spec.attack.kind = AttackKind::kExternalSpoof;
    s.axes.protection = {soc::ProtectionLevel::kPlaintext,
                         soc::ProtectionLevel::kCipherOnly,
                         soc::ProtectionLevel::kFull};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.transactions_per_cpu = 40;
    s.spec = base_spec("external-replay",
                       "Record-and-replay attack on a protected line across "
                       "protection levels (Section III.B)",
                       cfg, 2'000'000);
    s.spec.attack.kind = AttackKind::kExternalReplay;
    s.axes.protection = {soc::ProtectionLevel::kCipherOnly,
                         soc::ProtectionLevel::kFull};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.transactions_per_cpu = 150;
    s.spec = base_spec("flood-dos",
                       "Policy-legal dummy-traffic flood: only arbitration "
                       "throttles it (Section III.A DoS)",
                       cfg, 4'000'000);
    s.spec.attack.kind = AttackKind::kFloodInPolicy;
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.transactions_per_cpu = 150;
    s.spec = base_spec("flood-throttled",
                       "Same in-policy flood against a rate-limited LF: the "
                       "DoS throttle caps the flooder's bus share",
                       cfg, 4'000'000);
    s.spec.attack.kind = AttackKind::kFloodThrottled;
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.transactions_per_cpu = 40;
    cfg.enable_reconfig = true;
    s.spec = base_spec("reconfig-lockdown",
                       "Hijacked IP with the alert-driven responder enabled: "
                       "repeat offenders get locked down (Section VI)",
                       cfg, 2'000'000);
    s.spec.attack.kind = AttackKind::kHijack;
    catalog.push_back(std::move(s));
  }

  // --- multi-segment fabrics (NoC-style mesh/star topologies) ------------
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::mesh2x2_config();
    cfg.protection = soc::ProtectionLevel::kCipherOnly;
    cfg.transactions_per_cpu = 100;
    s.spec = base_spec("mesh2x2_ciphered",
                       "8 CPUs on a 2x2 mesh-of-buses with ciphered external "
                       "memory; check placement swept to expose how hop "
                       "count separates distributed from centralized",
                       cfg, 30'000'000);
    s.axes.security = {soc::SecurityMode::kNone,
                       soc::SecurityMode::kDistributed,
                       soc::SecurityMode::kCentralized};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    s.spec = base_spec("star_32cpu",
                       "32 CPUs on 4 star leaves around the memory hub: "
                       "distributed firewalls at fabric scale the paper's "
                       "centralized baseline cannot reach",
                       soc::star32_config(), 60'000'000);
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::tiny_test_config();
    cfg.topology = soc::TopologySpec::mesh(2, 2);
    cfg.processors = 4;
    cfg.transactions_per_cpu = 40;
    s.spec = base_spec("fabric_containment",
                       "Hijacked IP on the far corner of a 2x2 mesh: its "
                       "Local Firewall must contain every probe before it "
                       "crosses a single bridge",
                       cfg, 2'000'000);
    s.spec.attack.kind = AttackKind::kHijack;
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.processors = 16;
    cfg.protection = soc::ProtectionLevel::kPlaintext;  // isolate check cost
    cfg.transactions_per_cpu = 80;
    s.spec = base_spec("fabric_scaling",
                       "16 CPUs swept over flat/star/mesh fabrics and check "
                       "placement: per-access tails vs. hop count (plaintext "
                       "memory isolates the check cost)",
                       cfg, 30'000'000);
    s.axes.topology = {soc::TopologySpec::flat(), soc::TopologySpec::star(4),
                       soc::TopologySpec::mesh(2, 2),
                       soc::TopologySpec::mesh(4, 4)};
    s.axes.security = {soc::SecurityMode::kNone,
                       soc::SecurityMode::kDistributed,
                       soc::SecurityMode::kCentralized};
    catalog.push_back(std::move(s));
  }

  // --- design-space sweeps (Section V claims, checked by paper_claims) ---
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.transactions_per_cpu = 150;
    s.spec = base_spec("distributed-vs-centralized",
                       "Check-placement ablation: security mode crossed with "
                       "protection level on the Section-V workload",
                       cfg, 30'000'000);
    s.axes.security = {soc::SecurityMode::kNone, soc::SecurityMode::kDistributed,
                       soc::SecurityMode::kCentralized};
    s.axes.protection = {soc::ProtectionLevel::kPlaintext,
                         soc::ProtectionLevel::kCipherOnly,
                         soc::ProtectionLevel::kFull};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.transactions_per_cpu = 150;
    cfg.protection = soc::ProtectionLevel::kPlaintext;  // isolate check cost
    s.spec = base_spec("centralized-scaling",
                       "Centralized-manager serialization vs. CPU count "
                       "(plaintext memory isolates the check cost)",
                       cfg, 30'000'000);
    s.axes.cpus = {1, 2, 3, 4, 6};
    s.axes.security = {soc::SecurityMode::kNone,
                       soc::SecurityMode::kDistributed,
                       soc::SecurityMode::kCentralized};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.transactions_per_cpu = 120;
    s.spec = base_spec("line-size-sweep",
                       "LCF protection granularity ablation: line_bytes "
                       "swept over the Section-V workload",
                       cfg, 30'000'000);
    s.axes.line_bytes = {16, 32, 64, 128};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.transactions_per_cpu = 120;
    s.spec = base_spec("policy-scaling",
                       "Policy-aggressiveness ablation: extra dummy rules "
                       "per firewall deepen the SB comparator array",
                       cfg, 30'000'000);
    s.axes.extra_rules = {0, 4, 8, 16, 32, 64};
    catalog.push_back(std::move(s));
  }
  {
    NamedScenario s;
    soc::SocConfig cfg = soc::section5_config();
    cfg.transactions_per_cpu = 150;
    s.spec = base_spec("comm-ratio",
                       "Protection overhead vs. traffic shape: external "
                       "share of accesses swept, secured vs. unsecured",
                       cfg, 20'000'000);
    s.axes.security = {soc::SecurityMode::kNone,
                       soc::SecurityMode::kDistributed};
    s.axes.external_fraction = {0.0, 0.1, 0.2, 0.4, 0.6, 0.8};
    catalog.push_back(std::move(s));
  }

  return catalog;
}

}  // namespace

const std::vector<NamedScenario>& builtin_scenarios() {
  static const std::vector<NamedScenario> catalog = build_catalog();
  return catalog;
}

const NamedScenario* find_scenario(std::string_view name) {
  for (const NamedScenario& s : builtin_scenarios()) {
    if (s.spec.name == name) return &s;
  }
  return nullptr;
}

}  // namespace secbus::scenario
