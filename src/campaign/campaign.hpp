// Campaign files: whole experiment grids declared in JSON.
//
// A campaign crosses one base ScenarioSpec over an attack axis (full
// AttackPlan shaping, not just the kind) and the scenario engine's SweepAxes
// (topology x cpus x security x protection x ... x seeds), expanding into
// thousands of independent jobs for the batch runner — with zero recompiles:
// the whole design space, threat model included, lives in the file.
//
// File shape (see examples/campaigns/ and the README "Campaigns" section):
//
//   {
//     "name": "attack-grid",
//     "description": "...",
//     "base": { <ScenarioSpec: soc config, default attack, cycle cap> },
//     "grid": {
//       "attack": ["hijack", {"kind": "flood-in-policy", "flood_writes": 800}],
//       "security": ["distributed", "centralized"],
//       "protection": ["plaintext", "cipher-only", "cipher+integrity"],
//       "topology": ["flat", "mesh2x2"],
//       "seeds": 5
//     }
//   }
//
// "seeds" is either an explicit array or a count (N deterministically
// derived repeats of the base seed). The attack axis is the outermost
// crossing; the remaining axes keep SweepAxes' fixed order, so job order is
// stable and every derived report is reproducible.
#pragma once

#include <string>
#include <vector>

#include "campaign/spec_io.hpp"
#include "scenario/registry.hpp"

namespace secbus::campaign {

struct CampaignSpec {
  std::string name;
  std::string description;
  scenario::ScenarioSpec base;
  // Outermost grid axis; empty = the base spec's attack plan only.
  std::vector<scenario::AttackPlan> attacks;
  scenario::SweepAxes axes;

  [[nodiscard]] std::size_t job_count() const noexcept {
    return (attacks.empty() ? 1 : attacks.size()) * axes.cardinality();
  }
};

// Hard cap on what one campaign may expand to; validate_campaign rejects
// anything larger so a typo'd grid cannot OOM the runner.
inline constexpr std::size_t kMaxCampaignJobs = 1'000'000;

// --- JSON <-> CampaignSpec --------------------------------------------------
bool campaign_from_json(const util::Json& j, CampaignSpec& out,
                        std::string* error);
// Streams the campaign document campaign_from_json reads back.
void write_campaign(util::JsonWriter& w, const CampaignSpec& campaign);

// Reads and parses `path`; errors carry the file name and either a JSON
// parse position or the offending JSON path.
bool load_campaign_file(const std::string& path, CampaignSpec& out,
                        std::string* error);
bool save_campaign_file(const std::string& path, const CampaignSpec& campaign,
                        std::string* error);

// Structural validation beyond per-field ranges: placement vs. every grid
// topology, CPU-window fit for every grid cpus value, LCF line fit, job cap.
// campaign_from_json runs this; standalone for programmatic specs.
bool validate_campaign(const CampaignSpec& campaign, std::string* error);

// Expands the full grid in deterministic order (attack outermost, then the
// SweepAxes crossing). Variants carry an "attack=<kind>" component when the
// attack axis is active.
[[nodiscard]] std::vector<scenario::ScenarioSpec> expand_campaign(
    const CampaignSpec& campaign);

// --- builtin registry as data -----------------------------------------------
// Wraps a registry entry into an equivalent campaign (same base spec, same
// default axes); expand_campaign() of the result reproduces
// scenario::expand(entry.spec, entry.axes) spec-for-spec.
[[nodiscard]] CampaignSpec campaign_from_builtin(
    const scenario::NamedScenario& entry);

// Writes one "<name>.json" campaign file per builtin scenario into `dir`
// (created if missing). Returns the written paths through `paths`.
bool export_builtin_campaigns(const std::string& dir,
                              std::vector<std::string>* paths,
                              std::string* error);

}  // namespace secbus::campaign
