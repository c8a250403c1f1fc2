#include "scenario/scenario.hpp"

#include <vector>

#include "attack/external_attacker.hpp"
#include "attack/flood_master.hpp"
#include "core/alert.hpp"
#include "core/security_policy.hpp"
#include "ip/scripted_master.hpp"
#include "soc/soc.hpp"
#include "util/rng.hpp"

namespace secbus::scenario {

const char* to_string(AttackKind kind) noexcept {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kHijack: return "hijack";
    case AttackKind::kExternalSpoof: return "external-spoof";
    case AttackKind::kExternalReplay: return "external-replay";
    case AttackKind::kExternalRelocation: return "external-relocation";
    case AttackKind::kExternalCorruption: return "external-corruption";
    case AttackKind::kFloodInPolicy: return "flood-in-policy";
    case AttackKind::kFloodOutOfPolicy: return "flood-out-of-policy";
    case AttackKind::kFloodThrottled: return "flood-throttled";
  }
  return "?";
}

bool parse_attack_kind(std::string_view text, AttackKind& out) noexcept {
  for (const AttackKind kind :
       {AttackKind::kNone, AttackKind::kHijack, AttackKind::kExternalSpoof,
        AttackKind::kExternalReplay, AttackKind::kExternalRelocation,
        AttackKind::kExternalCorruption, AttackKind::kFloodInPolicy,
        AttackKind::kFloodOutOfPolicy, AttackKind::kFloodThrottled}) {
    if (text == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t repeat) noexcept {
  if (repeat == 0) return base;
  std::uint64_t state = base ^ (0x9E3779B97F4A7C15ULL * repeat);
  return util::splitmix64_next(state);
}

namespace {

constexpr sim::MasterId kAttackMasterId = 250;

// Deterministic victim payload: byte i is i*7+salt.
std::vector<std::uint8_t> attack_pattern(std::size_t len, std::uint8_t salt) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 7 + salt);
  }
  return out;
}

// First alert raised at or after `attack_cycle`; kNeverCycle when none.
sim::Cycle detection_cycle_after(const core::SecurityEventLog& log,
                                 sim::Cycle attack_cycle) {
  for (const auto& alert : log.alerts()) {
    if (alert.cycle >= attack_cycle) return alert.cycle;
  }
  return sim::kNeverCycle;
}

std::uint64_t bus_grants_for(soc::Soc& soc, std::string_view master) {
  const bus::SystemBus::MasterStats* ms = soc.fabric().find_master(master);
  return ms != nullptr ? ms->grants : 0;
}

void accumulate(JobResult& r, const core::FirewallStats& s) {
  r.fw_passed += s.passed;
  r.fw_blocked += s.blocked;
  r.fw_check_cycles += s.check_cycles;
  for (std::size_t i = 0; i < s.violations.size(); ++i) {
    r.violations[i] += s.violations[i];
  }
}

// Escalating probe script from the hijack demo: 4 out-of-policy attempts
// followed by 2 legal accesses proving the FI gate is per-transaction.
constexpr std::uint64_t kHijackLegalSteps = 2;

void stage_hijack(soc::Soc& soc, ip::ScriptedMaster& mal) {
  const auto& plan = soc.plan();
  mal.enqueue_write(50, plan.bram_boot.base, attack_pattern(4, 1));   // RO seg
  mal.enqueue_write(50, plan.bram_boot.base + 64, attack_pattern(4, 2));
  mal.enqueue_read(50, 0xD000'0000ULL);                // unmapped scan
  mal.enqueue_read(50, plan.bram_boot.base, bus::DataFormat::kByte);  // ADF
  mal.enqueue_write(50, plan.bram_scratch.base, attack_pattern(4, 3));  // legal
  mal.enqueue_read(50, plan.bram_scratch.base);                       // legal
}

}  // namespace

JobResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunHooks{});
}

JobResult run_scenario(const ScenarioSpec& spec, const RunHooks& hooks) {
  JobResult r;
  r.name = spec.name;
  r.variant = spec.variant;
  r.cpus = spec.soc.processors;
  r.security = to_string(spec.soc.security);
  r.protection = to_string(spec.soc.protection);
  r.seed = spec.soc.seed;
  r.extra_rules = spec.soc.extra_rules;
  r.line_bytes = spec.soc.line_bytes;
  r.attack = to_string(spec.attack.kind);
  r.topology = spec.soc.topology.label();
  r.segments = spec.soc.topology.segment_count();

  soc::SocConfig soc_cfg = spec.soc;
  if (hooks.trace_capacity > 0) soc_cfg.trace_capacity = hooks.trace_capacity;
  soc::Soc soc(soc_cfg);
  // Diameter from the protected external memory's segment (== the legacy
  // memory segment unless the DDR was relocated).
  r.max_hops = soc.fabric().hop_count(
      soc.ddr_segment(),
      soc.fabric().farthest_segment_from(soc.ddr_segment()));
  const auto& plan = soc.plan();
  const AttackPlan& atk = spec.attack;

  // --- stage the attack (everything scheduled before run) ---------------
  ip::ScriptedMaster* victim = nullptr;
  std::vector<std::uint8_t> expected;
  std::unique_ptr<attack::ExternalAttacker> attacker;
  std::unique_ptr<attack::FloodMaster> flood;

  const bool external_attack = atk.kind == AttackKind::kExternalSpoof ||
                               atk.kind == AttackKind::kExternalReplay ||
                               atk.kind == AttackKind::kExternalRelocation ||
                               atk.kind == AttackKind::kExternalCorruption;
  const bool flood_attack = atk.kind == AttackKind::kFloodInPolicy ||
                            atk.kind == AttackKind::kFloodOutOfPolicy ||
                            atk.kind == AttackKind::kFloodThrottled;

  if (atk.kind == AttackKind::kHijack) {
    auto& mal = soc.add_scripted_master("hijacked", soc.cpu_policy(0));
    stage_hijack(soc, mal);
  } else if (external_attack && plan.shared_code.size >= 2 * spec.soc.line_bytes) {
    // (a smaller shared-code window cannot host the victim + donor lines;
    // the attack is skipped and the job reports attack_ran = false)
    const std::uint64_t line_bytes = spec.soc.line_bytes;
    const sim::Addr victim_line = plan.shared_code.base;
    const sim::Addr donor_line = plan.shared_code.base + line_bytes;

    core::PolicyBuilder pb(0x500);
    pb.allow(plan.shared_code.base, plan.shared_code.size,
             core::RwAccess::kReadWrite, core::FormatMask::kAll,
             "victim-window");
    victim = &soc.add_scripted_master("victim", pb.build());

    const auto pattern_a = attack_pattern(line_bytes, 1);
    const auto pattern_b = attack_pattern(line_bytes, 101);

    // Victim timeline (generous delays so each phase completes before the
    // attacker acts, independent of protection-level latency): write A,
    // [replay: bump to B], attacker tampers ~20-25k, read back at 40k.
    victim->enqueue_write(0, victim_line, pattern_a);
    if (atk.kind == AttackKind::kExternalRelocation) {
      victim->enqueue_write(100, donor_line, pattern_b);
    }
    expected = pattern_a;
    if (atk.kind == AttackKind::kExternalReplay) {
      victim->enqueue_write(10'000, victim_line, pattern_b);
      expected = pattern_b;
    }
    victim->enqueue_read(40'000, victim_line, bus::DataFormat::kWord,
                         static_cast<std::uint16_t>(line_bytes / 4));

    attacker = std::make_unique<attack::ExternalAttacker>(soc, spec.soc.seed);
    switch (atk.kind) {
      case AttackKind::kExternalSpoof:
        attacker->schedule_spoof(20'000, victim_line, line_bytes);
        break;
      case AttackKind::kExternalReplay:
        attacker->schedule_replay(8'000, 25'000, victim_line, line_bytes);
        break;
      case AttackKind::kExternalRelocation:
        attacker->schedule_relocation(20'000, donor_line, victim_line,
                                      line_bytes);
        break;
      case AttackKind::kExternalCorruption:
        attacker->schedule_corruption(20'000, victim_line, line_bytes,
                                      atk.corruption_flips);
        break;
      default: break;
    }
  } else if (flood_attack) {
    attack::FloodMaster::Config fc;
    // In-policy floods hammer the shared scratchpad (legal traffic, only
    // arbitration or the throttle can contain it); out-of-policy floods
    // hammer the read-only boot area and die in the flooder's own LF.
    fc.target = atk.kind == AttackKind::kFloodOutOfPolicy
                    ? plan.bram_boot.base
                    : plan.bram_scratch.base + plan.bram_scratch.size / 2;
    fc.region = 4096;
    fc.burst_beats = atk.flood_burst_beats;
    fc.total_writes = atk.flood_writes;
    flood = std::make_unique<attack::FloodMaster>("flooder", kAttackMasterId,
                                                  fc);

    core::PolicyBuilder pb(0x600);
    pb.allow(plan.bram_scratch.base, plan.bram_scratch.size,
             core::RwAccess::kReadWrite, core::FormatMask::k32,
             "flood-window");
    core::LocalFirewall::Config lf_cfg;
    lf_cfg.rate_limit_window = atk.rate_limit_window;
    lf_cfg.rate_limit_max = atk.rate_limit_max;
    soc.attach_custom_master(
        *flood, pb.build(),
        atk.kind == AttackKind::kFloodThrottled ? &lf_cfg : nullptr);
  }

  // --- run ---------------------------------------------------------------
  r.soc = soc.run(spec.max_cycles);

  // --- collect -----------------------------------------------------------
  for (const auto& cpu : soc.processors()) {
    r.cpu_latency.merge(cpu->stats().latency);
  }
  r.latency_hist = soc.latency_hist();
  // The firewall counters (fw_passed, fw_blocked, violations,
  // sb_check_latency) cover distributed firewalls only: the centralized
  // ones report through the metrics snapshot (core.gate_*) alone.
  const bool distributed =
      soc.config().security == soc::SecurityMode::kDistributed;
  if (distributed) {
    for (const auto& fw : soc.master_firewalls()) accumulate(r, fw->stats());
    accumulate(r, soc.bram_firewall()->stats());
    accumulate(r, soc.ddr_firewall()->stats());
  }
  if (soc.lcf() != nullptr) {
    const auto& lcf = *soc.lcf();
    r.lcf.protected_reads = lcf.stats().protected_reads;
    r.lcf.protected_writes = lcf.stats().protected_writes;
    r.lcf.read_modify_writes = lcf.stats().read_modify_writes;
    r.lcf.cc_cycles = lcf.cc().stats().cycles_charged;
    r.lcf.ic_cycles = lcf.ic().stats().cycles_charged;
    r.lcf.tree_depth = lcf.ic().tree().depth();
  }

  if (soc.manager() != nullptr) {
    r.manager_queue_wait = soc.manager()->queue_wait().mean();
  }
  if (distributed && !soc.master_firewalls().empty()) {
    r.sb_check_latency =
        soc.master_firewalls().front()->builder()->check_latency();
  }

  r.attack_cycle =
      attacker != nullptr ? attacker->first_action_cycle() : sim::Cycle{0};
  if (atk.kind != AttackKind::kNone) {
    // External attacks may fail to stage (window too small) — then nothing
    // ran and detection metrics would only pick up benign-run alerts.
    r.attack_ran = external_attack
                       ? attacker != nullptr && !attacker->actions().empty()
                       : true;
    if (r.attack_ran) {
      r.detection_cycle = detection_cycle_after(soc.log(), r.attack_cycle);
      r.detected = r.detection_cycle != sim::kNeverCycle;
      if (r.detected) r.detection_latency = r.detection_cycle - r.attack_cycle;
    }
  }

  if (atk.kind == AttackKind::kHijack) {
    // Containment (Section III.C): only the script's legal accesses may ever
    // win a bus grant; every probe must die inside the hijacked IP's LF.
    r.containment_checked = true;
    r.contained = bus_grants_for(soc, "hijacked") <= kHijackLegalSteps;
  }
  if (victim != nullptr && !victim->stats().responses.empty()) {
    // An empty response list means the cycle cap cut the victim's script
    // short (r.soc.completed is false); no final read to judge.
    const bus::BusTransaction& final_read = victim->stats().responses.back();
    r.victim_checked = true;
    r.victim_read_aborted = final_read.status != bus::TransStatus::kOk;
    r.victim_data_intact =
        final_read.status == bus::TransStatus::kOk && final_read.data == expected;
  }
  if (flood != nullptr) {
    r.flood_completed = flood->completed();
    r.flood_blocked = flood->rejected();
    // Only an out-of-policy flood can be *contained* (absorbed by the
    // flooder's own LF); in-policy floods are legal traffic by definition.
    r.containment_checked = atk.kind == AttackKind::kFloodOutOfPolicy;
    r.contained = r.containment_checked && bus_grants_for(soc, "flooder") == 0;
  }

  if (hooks.collect_metrics) soc.snapshot_metrics(r.metrics);
  if (hooks.inspect) hooks.inspect(soc, r);

  return r;
}

}  // namespace secbus::scenario
