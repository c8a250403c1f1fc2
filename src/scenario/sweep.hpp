// Sweep expansion: crosses one base ScenarioSpec over parameter axes into a
// flat job list. An empty axis keeps the base spec's value; non-empty axes
// are crossed in a fixed order (topology, cpus, security, protection,
// extra_rules, line_bytes, external_fraction, seeds) so job order — and
// therefore every derived report — is independent of how the runner
// schedules the jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/scenario.hpp"

namespace secbus::scenario {

struct SweepAxes {
  std::vector<soc::TopologySpec> topology;
  std::vector<std::size_t> cpus;
  std::vector<soc::SecurityMode> security;
  std::vector<soc::ProtectionLevel> protection;
  std::vector<std::size_t> extra_rules;
  std::vector<std::uint64_t> line_bytes;
  std::vector<double> external_fraction;
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] bool empty() const noexcept;

  // Number of jobs expand() will produce: the product of every non-empty
  // axis's length (1 when all axes are empty).
  [[nodiscard]] std::size_t cardinality() const noexcept;

  bool operator==(const SweepAxes&) const = default;
};

// Crosses `base` over `axes`. Each variant carries a "key=value,..." label
// naming only the swept axes; a no-axis sweep returns the base spec alone.
[[nodiscard]] std::vector<ScenarioSpec> expand(const ScenarioSpec& base,
                                               const SweepAxes& axes);

// Replicates each spec `repeats` times with deterministically derived seeds
// (derive_seed(base_seed, r)); repeats <= 1 returns the input unchanged.
[[nodiscard]] std::vector<ScenarioSpec> replicate_seeds(
    std::vector<ScenarioSpec> specs, std::uint64_t repeats);

// The variant-label format, shared with the campaign expander: labels are
// comma-joined "key=value" components, appended in axis order.
void append_variant_label(std::string& label, const char* key,
                          const std::string& value);

// Removes every "key=value" component from a sweep variant label. Grouping
// jobs by strip_variant_key(variant, "seed") collapses seed repeats of one
// grid cell onto a single key (campaign report cells).
[[nodiscard]] std::string strip_variant_key(const std::string& label,
                                            const char* key);

}  // namespace secbus::scenario
