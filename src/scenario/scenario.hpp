// Declarative experiment descriptions ("scenarios") and their executor.
//
// A ScenarioSpec bundles everything one independent simulation needs: the
// SoC configuration (structure, protection, workload shape), an optional
// staged attack from the paper's threat model, and a cycle cap. Specs are
// plain data: they can be registered by name (registry.hpp), crossed over
// parameter axes (sweep.hpp) and executed in parallel (runner.hpp), which is
// what turns the paper's one-off demos into repeatable batch experiments.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "core/security_policy.hpp"
#include "obs/registry.hpp"
#include "sim/types.hpp"
#include "soc/soc.hpp"
#include "soc/soc_config.hpp"
#include "util/stats.hpp"

namespace secbus::scenario {

// Which staged attack (if any) rides on top of the benign workload. The
// kinds mirror the paper's Section-III threat model: a hijacked internal IP,
// an attacker on the external memory pins, and dummy-traffic DoS floods.
enum class AttackKind : std::uint8_t {
  kNone = 0,
  kHijack,              // malicious code on a trusted IP: escalating probes
  kExternalSpoof,       // overwrite a protected line with attacker bytes
  kExternalReplay,      // record ciphertext, write the stale copy back later
  kExternalRelocation,  // copy valid ciphertext to a different address
  kExternalCorruption,  // random bit flips over a protected line (DoS)
  kFloodInPolicy,       // policy-legal dummy-traffic flood (arbitration DoS)
  kFloodOutOfPolicy,    // out-of-policy flood, absorbed by the flooder's LF
  kFloodThrottled,      // in-policy flood against a rate-limited LF
};

[[nodiscard]] const char* to_string(AttackKind kind) noexcept;
[[nodiscard]] bool parse_attack_kind(std::string_view text,
                                     AttackKind& out) noexcept;

// Shaping knobs for the staged attack; ignored fields are harmless.
struct AttackPlan {
  AttackKind kind = AttackKind::kNone;
  // Flood shaping (kFlood*).
  std::uint64_t flood_writes = 400;
  std::uint16_t flood_burst_beats = 8;
  // DoS throttle parameters (kFloodThrottled, distributed mode only).
  sim::Cycle rate_limit_window = 2000;
  std::uint32_t rate_limit_max = 4;
  // Bit flips scattered over the victim line (kExternalCorruption).
  unsigned corruption_flips = 8;

  bool operator==(const AttackPlan&) const = default;
};

// A fully-resolved, runnable experiment description.
struct ScenarioSpec {
  std::string name;         // registry name (stable across sweep variants)
  std::string variant;      // axis label, e.g. "cpus=3,security=distributed"
  std::string description;  // one-liner for list-scenarios
  soc::SocConfig soc;
  AttackPlan attack;
  sim::Cycle max_cycles = 30'000'000;

  bool operator==(const ScenarioSpec&) const = default;
};

// Everything measured from one scenario execution. Plain data so batch
// results can be compared bit-for-bit across runner thread counts.
struct JobResult {
  std::size_t index = 0;    // position in the submitted job list
  std::string name;
  std::string variant;

  // Echo of the axes that identify this job in sweeps/CSV.
  std::size_t cpus = 0;
  const char* security = "";
  const char* protection = "";
  std::uint64_t seed = 0;
  std::size_t extra_rules = 0;
  std::uint64_t line_bytes = 0;
  const char* attack = "none";
  std::string topology = "flat";  // fabric shape label ("flat", "mesh2x2"...)
  std::size_t segments = 1;       // fabric segment count
  std::size_t max_hops = 0;       // fabric diameter from the memory segment

  soc::SocResults soc;

  // Per-access issue->response latency, merged across every processor in
  // this job (full moments, not a mean-of-means).
  util::RunningStat cpu_latency;
  // The same accesses bucketed per cycle: exact p50/p95/p99 per job, and
  // mergeable across jobs for true batch-level access percentiles.
  util::LatencyHistogram latency_hist;

  // Firewall activity summed over every firewall in the system (master LFs,
  // BRAM slave firewall, LCF).
  std::uint64_t fw_passed = 0;
  std::uint64_t fw_blocked = 0;
  std::uint64_t fw_check_cycles = 0;
  std::array<std::uint64_t, core::kViolationKindCount> violations{};

  // Attack outcome (meaningful when the spec staged one). detection_cycle /
  // detection_latency are only meaningful when `detected` is true — report
  // emitters must write empty/null cells for undetected runs, never 0,
  // so "detected instantly" stays distinguishable from "never detected".
  bool attack_ran = false;
  bool detected = false;
  sim::Cycle attack_cycle = 0;
  sim::Cycle detection_cycle = sim::kNeverCycle;
  sim::Cycle detection_latency = 0;
  bool contained = false;          // attacker traffic never won the bus
  // True when this scenario kind actually evaluates containment (hijack and
  // out-of-policy floods); `contained` is meaningless otherwise.
  bool containment_checked = false;
  bool victim_data_intact = false; // external attacks: final read unchanged
  // True when a victim's final read-back completed and was judged; external
  // attacks only. `victim_data_intact` is meaningless otherwise.
  bool victim_checked = false;
  bool victim_read_aborted = false;
  std::uint64_t flood_completed = 0;
  std::uint64_t flood_blocked = 0;

  // Full per-component metric snapshot (RunHooks::collect_metrics). Empty —
  // and absent from serialized results — unless collection was requested,
  // so default outputs stay byte-identical to pre-observability runs.
  obs::Registry metrics;

  // Mode-specific probes; the paper-claims test checks the Section V
  // trends on them.
  double manager_queue_wait = 0.0;   // centralized: mean cycles in the queue
  sim::Cycle sb_check_latency = 0;   // distributed: per-access SB check cost

  // LCF activity (distributed mode; zeros otherwise) for the line-size and
  // protection-granularity ablations.
  struct LcfProbe {
    std::uint64_t protected_reads = 0;
    std::uint64_t protected_writes = 0;
    std::uint64_t read_modify_writes = 0;
    std::uint64_t cc_cycles = 0;  // Confidentiality Core cycles charged
    std::uint64_t ic_cycles = 0;  // Integrity Core cycles charged
    std::size_t tree_depth = 0;
  } lcf;

  [[nodiscard]] std::uint64_t violation_count(core::Violation v) const noexcept {
    return violations[static_cast<std::size_t>(v)];
  }
};

// Per-run observability options. Deliberately *not* part of ScenarioSpec:
// hooks change what is recorded about a run, never what the run computes,
// so they must not perturb spec fingerprints (campaign checkpoints resume
// against the unhooked spec identity).
struct RunHooks {
  // Snapshot the full component-metric registry into JobResult::metrics
  // after the run. Costs nothing during simulation (pull model).
  bool collect_metrics = false;

  // When > 0, overrides SocConfig::trace_capacity for this run (e.g. the
  // CLI's --trace path raises it so a whole run fits in the ring).
  std::size_t trace_capacity = 0;

  // Called after metrics collection, while the SoC is still alive — the
  // only window where a caller can inspect live components (export the
  // event trace, dump memories, cross-check counters).
  std::function<void(soc::Soc&, const JobResult&)> inspect;
};

// Builds the SoC described by `spec`, stages the attack plan, runs until
// the kernel is idle (or the cycle cap) and collects every metric.
// Self-contained and thread-safe: concurrent calls share no state.
[[nodiscard]] JobResult run_scenario(const ScenarioSpec& spec);
[[nodiscard]] JobResult run_scenario(const ScenarioSpec& spec,
                                     const RunHooks& hooks);

// Deterministically derives the seed for repeat `r` of a spec seeded with
// `base` (SplitMix64 over base ^ r; repeat 0 keeps the base seed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t repeat) noexcept;

}  // namespace secbus::scenario
