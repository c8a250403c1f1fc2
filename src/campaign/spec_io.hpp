// JSON (de)serialization of the scenario-engine spec types.
//
// Turns ScenarioSpec — SocConfig, AttackPlan, TopologySpec — and SweepAxes
// into plain JSON and back, so experiments become data instead of C++: a
// campaign file can declare everything a builtin scenario declares, and
// every builtin scenario can be exported losslessly (`spec_equal` verifies
// the round trip field by field, which by simulator determinism implies
// bit-identical SocResults).
//
// Readers *merge*: fields present in the JSON overwrite the value passed in,
// everything else keeps its current (default or base) value. Every reader
// rejects unknown keys and reports errors as "<json.path>: message", e.g.
//   base.soc.protection: unknown protection level 'fulll'
// so a typo'd campaign file fails with the offending path, not a silent
// default.
#pragma once

#include <string>

#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "util/json.hpp"

namespace secbus::campaign {

// --- writers (emit every field; output re-reads to an equal value) ---------
// write_* stream the canonical document; *_to_json return it as a tree.
void write_topology(util::JsonWriter& w, const soc::TopologySpec& topo);
void write_soc(util::JsonWriter& w, const soc::SocConfig& cfg);
void write_attack(util::JsonWriter& w, const scenario::AttackPlan& plan);
void write_spec(util::JsonWriter& w, const scenario::ScenarioSpec& spec);
[[nodiscard]] util::Json topology_to_json(const soc::TopologySpec& topo);
[[nodiscard]] util::Json soc_to_json(const soc::SocConfig& cfg);
[[nodiscard]] util::Json attack_to_json(const scenario::AttackPlan& plan);
[[nodiscard]] util::Json spec_to_json(const scenario::ScenarioSpec& spec);
// The "grid" object: one member per non-empty axis.
[[nodiscard]] util::Json axes_to_json(const scenario::SweepAxes& axes);

// --- readers (merge onto `out`; false + "<path>: message" on bad input) ----
bool topology_from_json(const util::Json& j, const std::string& path,
                        soc::TopologySpec& out, std::string* error);
bool soc_from_json(const util::Json& j, const std::string& path,
                   soc::SocConfig& out, std::string* error);
bool attack_from_json(const util::Json& j, const std::string& path,
                      scenario::AttackPlan& out, std::string* error);
bool spec_from_json(const util::Json& j, const std::string& path,
                    scenario::ScenarioSpec& out, std::string* error);
// `base_seed` feeds the "seeds": <count> shorthand (derive_seed chain).
// `allow_attack_key` marks "attack" as recognized-but-skipped: the campaign
// reader parses that axis itself and passes the same grid object here.
bool axes_from_json(const util::Json& j, const std::string& path,
                    std::uint64_t base_seed, scenario::SweepAxes& out,
                    std::string* error, bool allow_attack_key = false);

// --- comparison -------------------------------------------------------------
[[nodiscard]] bool topology_equal(const soc::TopologySpec& a,
                                  const soc::TopologySpec& b) noexcept;
[[nodiscard]] bool soc_equal(const soc::SocConfig& a,
                             const soc::SocConfig& b) noexcept;
[[nodiscard]] bool attack_equal(const scenario::AttackPlan& a,
                                const scenario::AttackPlan& b) noexcept;
// Every field, soc config and attack plan included.
[[nodiscard]] bool spec_equal(const scenario::ScenarioSpec& a,
                              const scenario::ScenarioSpec& b) noexcept;
[[nodiscard]] bool axes_equal(const scenario::SweepAxes& a,
                              const scenario::SweepAxes& b) noexcept;

}  // namespace secbus::campaign
