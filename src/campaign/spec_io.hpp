// JSON (de)serialization of the scenario-engine spec types.
//
// Turns ScenarioSpec — SocConfig, AttackPlan, TopologySpec — and SweepAxes
// into plain JSON and back, so experiments become data instead of C++: a
// campaign file can declare everything a builtin scenario declares, and
// every builtin scenario can be exported losslessly (the spec types'
// defaulted operator== verifies the round trip field by field, which by
// simulator determinism implies bit-identical SocResults).
//
// Readers *merge*: fields present in the JSON overwrite the value passed in,
// everything else keeps its current (default or base) value. Every reader
// rejects unknown keys and reports errors as "<json.path>: message", e.g.
//   base.soc.protection: unknown protection level 'fulll'
// so a typo'd campaign file fails with the offending path, not a silent
// default.
#pragma once

#include <span>
#include <string>

#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "util/json.hpp"

namespace secbus::campaign {

// --- writers (emit every field; output re-reads to an equal value) ---------
void write_topology(util::JsonWriter& w, const soc::TopologySpec& topo);
void write_soc(util::JsonWriter& w, const soc::SocConfig& cfg);
void write_attack(util::JsonWriter& w, const scenario::AttackPlan& plan);
void write_spec(util::JsonWriter& w, const scenario::ScenarioSpec& spec);
// The "grid" object: the campaign's attack axis first (when non-empty), then
// one member per non-empty sweep axis.
void write_axes(util::JsonWriter& w, const scenario::SweepAxes& axes,
                std::span<const scenario::AttackPlan> attacks = {});

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

}  // namespace secbus::campaign
