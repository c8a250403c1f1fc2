// Spec <-> JSON round trips: enum string pairs, every builtin scenario
// surviving export/import field-for-field, and — for the fast builtins —
// bit-identical SocResults when the reimported spec actually runs.
#include "campaign/spec_io.hpp"

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "scenario/registry.hpp"

namespace secbus::campaign {
namespace {

using scenario::AttackKind;
using soc::ProtectionLevel;
using soc::SecurityMode;
using soc::TopologySpec;

TEST(EnumRoundTrip, AttackKinds) {
  for (const AttackKind kind :
       {AttackKind::kNone, AttackKind::kHijack, AttackKind::kExternalSpoof,
        AttackKind::kExternalReplay, AttackKind::kExternalRelocation,
        AttackKind::kExternalCorruption, AttackKind::kFloodInPolicy,
        AttackKind::kFloodOutOfPolicy, AttackKind::kFloodThrottled}) {
    AttackKind parsed;
    ASSERT_TRUE(scenario::parse_attack_kind(to_string(kind), parsed))
        << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  AttackKind out;
  EXPECT_FALSE(scenario::parse_attack_kind("hijac", out));
  EXPECT_FALSE(scenario::parse_attack_kind("", out));
}

TEST(EnumRoundTrip, SecurityModes) {
  for (const SecurityMode mode :
       {SecurityMode::kNone, SecurityMode::kDistributed,
        SecurityMode::kCentralized}) {
    SecurityMode parsed;
    ASSERT_TRUE(soc::parse_security_mode(to_string(mode), parsed));
    EXPECT_EQ(parsed, mode);
  }
  SecurityMode out;
  EXPECT_FALSE(soc::parse_security_mode("decentralized", out));
}

TEST(EnumRoundTrip, ProtectionLevels) {
  for (const ProtectionLevel level :
       {ProtectionLevel::kPlaintext, ProtectionLevel::kCipherOnly,
        ProtectionLevel::kFull}) {
    ProtectionLevel parsed;
    ASSERT_TRUE(soc::parse_protection_level(to_string(level), parsed))
        << to_string(level);
    EXPECT_EQ(parsed, level);
  }
  // CLI short forms stay accepted.
  ProtectionLevel out;
  ASSERT_TRUE(soc::parse_protection_level("cipher", out));
  EXPECT_EQ(out, ProtectionLevel::kCipherOnly);
  ASSERT_TRUE(soc::parse_protection_level("full", out));
  EXPECT_EQ(out, ProtectionLevel::kFull);
  EXPECT_FALSE(soc::parse_protection_level("fulll", out));
}

TEST(EnumRoundTrip, TopologyLabels) {
  for (const TopologySpec& topo :
       {TopologySpec::flat(), TopologySpec::star(4), TopologySpec::star(64),
        TopologySpec::mesh(2, 2), TopologySpec::mesh(4, 4),
        TopologySpec::mesh(1, 8)}) {
    TopologySpec parsed;
    ASSERT_TRUE(soc::parse_topology(topo.label(), parsed)) << topo.label();
    EXPECT_TRUE(parsed == topo) << topo.label();
  }
  TopologySpec out;
  EXPECT_FALSE(soc::parse_topology("ring4", out));
  EXPECT_FALSE(soc::parse_topology("star0", out));
  EXPECT_FALSE(soc::parse_topology("mesh2", out));
  EXPECT_FALSE(soc::parse_topology("mesh9x9", out));  // > 64 segments
}

TEST(SpecIo, NonDefaultHopLatencySurvives) {
  soc::TopologySpec topo = soc::TopologySpec::mesh(2, 3, 5);
  soc::TopologySpec back;
  std::string error;
  const util::Json j = util::written_tree(
      [&](util::JsonWriter& w) { write_topology(w, topo); });
  ASSERT_TRUE(topology_from_json(j, "topology", back, &error)) << error;
  EXPECT_TRUE(back == topo);
}

TEST(SpecIo, EveryBuiltinSpecRoundTrips) {
  for (const scenario::NamedScenario& entry : scenario::builtin_scenarios()) {
    const util::Json j = util::written_tree(
        [&](util::JsonWriter& w) { write_spec(w, entry.spec); });
    scenario::ScenarioSpec back;
    std::string error;
    ASSERT_TRUE(spec_from_json(j, "base", back, &error))
        << entry.spec.name << ": " << error;
    EXPECT_TRUE(back == entry.spec) << entry.spec.name;

    // And through actual text, not just the Json tree.
    util::Json reparsed;
    ASSERT_TRUE(util::Json::parse(j.dump(), reparsed, &error))
        << entry.spec.name << ": " << error;
    scenario::ScenarioSpec back2;
    ASSERT_TRUE(spec_from_json(reparsed, "base", back2, &error))
        << entry.spec.name << ": " << error;
    EXPECT_TRUE(back2 == entry.spec) << entry.spec.name;
  }
}

TEST(SpecIo, EveryBuiltinAxesRoundTrip) {
  for (const scenario::NamedScenario& entry : scenario::builtin_scenarios()) {
    const util::Json j = util::written_tree(
        [&](util::JsonWriter& w) { write_axes(w, entry.axes); });
    scenario::SweepAxes back;
    std::string error;
    ASSERT_TRUE(
        axes_from_json(j, "grid", entry.spec.soc.seed, back, &error))
        << entry.spec.name << ": " << error;
    EXPECT_TRUE(back == entry.axes) << entry.spec.name;
  }
}

// The acceptance check behind "the registry becomes data": exporting a
// builtin to JSON and re-importing it must reproduce bit-identical results.
// Runs the two fast attack scenarios end to end (spec equality + the existing
// determinism suite covers the rest by construction).
TEST(SpecIo, ReimportedBuiltinReproducesBitIdenticalResults) {
  for (const char* name : {"hijack", "fabric_containment"}) {
    const scenario::NamedScenario* entry = scenario::find_scenario(name);
    ASSERT_NE(entry, nullptr) << name;

    std::string error;
    std::string text;
    util::JsonWriter w(text, 2);
    write_campaign(w, campaign_from_builtin(*entry));
    util::Json reparsed;
    ASSERT_TRUE(util::Json::parse(text, reparsed, &error)) << error;
    CampaignSpec campaign;
    ASSERT_TRUE(campaign_from_json(reparsed, campaign, &error)) << error;

    const std::vector<scenario::ScenarioSpec> expected =
        scenario::expand(entry->spec, entry->axes);
    const std::vector<scenario::ScenarioSpec> imported =
        expand_campaign(campaign);
    ASSERT_EQ(imported.size(), expected.size());

    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(imported[i] == expected[i]) << name;
      const scenario::JobResult a = scenario::run_scenario(expected[i]);
      const scenario::JobResult b = scenario::run_scenario(imported[i]);
      EXPECT_EQ(a.soc.cycles, b.soc.cycles);
      EXPECT_EQ(a.soc.transactions_ok, b.soc.transactions_ok);
      EXPECT_EQ(a.soc.transactions_failed, b.soc.transactions_failed);
      EXPECT_EQ(a.soc.alerts, b.soc.alerts);
      EXPECT_EQ(a.soc.bytes_moved, b.soc.bytes_moved);
      EXPECT_EQ(a.soc.latency_p50, b.soc.latency_p50);
      EXPECT_EQ(a.soc.latency_p99, b.soc.latency_p99);
      EXPECT_DOUBLE_EQ(a.soc.avg_access_latency, b.soc.avg_access_latency);
      EXPECT_DOUBLE_EQ(a.soc.bus_occupancy, b.soc.bus_occupancy);
      EXPECT_EQ(a.detected, b.detected);
      EXPECT_EQ(a.detection_cycle, b.detection_cycle);
      EXPECT_EQ(a.contained, b.contained);
      EXPECT_EQ(a.fw_blocked, b.fw_blocked);
    }
  }
}

TEST(SpecIo, TopologyObjectRejectsShapeKeysOfOtherKinds) {
  // "rows" on a star is a star/mesh mix-up, not a tunable to ignore.
  util::Json j;
  std::string error;
  ASSERT_TRUE(util::Json::parse(R"({"kind": "star", "rows": 4})", j, &error));
  soc::TopologySpec topo;
  EXPECT_FALSE(topology_from_json(j, "topology", topo, &error));
  EXPECT_NE(error.find("topology.rows"), std::string::npos) << error;
}

TEST(SpecIo, RateLimitMaxRejectsValuesThatWouldTruncate) {
  // 2^32 + 1 would wrap to 1 in the uint32 field; it must fail, not wrap.
  util::Json j;
  std::string error;
  ASSERT_TRUE(util::Json::parse(
      R"({"kind": "flood-throttled", "rate_limit_max": 4294967297})", j,
      &error));
  scenario::AttackPlan plan;
  EXPECT_FALSE(attack_from_json(j, "attack", plan, &error));
  EXPECT_NE(error.find("attack.rate_limit_max"), std::string::npos) << error;
}

TEST(SpecIo, UnknownKeysNameTheJsonPath) {
  util::Json j;
  std::string error;
  ASSERT_TRUE(util::Json::parse(
      R"({"soc": {"processors": 2, "procesors": 3}})", j, &error));
  scenario::ScenarioSpec spec;
  EXPECT_FALSE(spec_from_json(j, "base", spec, &error));
  EXPECT_NE(error.find("base.soc.procesors"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
}

TEST(SpecIo, BadEnumNamesThePathAndValue) {
  util::Json j;
  std::string error;
  ASSERT_TRUE(
      util::Json::parse(R"({"soc": {"protection": "fulll"}})", j, &error));
  scenario::ScenarioSpec spec;
  EXPECT_FALSE(spec_from_json(j, "base", spec, &error));
  EXPECT_NE(error.find("base.soc.protection"), std::string::npos) << error;
}

TEST(SpecIo, StructuralSocInvariantsAreFileErrorsNotAsserts) {
  scenario::ScenarioSpec spec;
  std::string error;
  util::Json j;
  // Protected window not anchored at the DDR base.
  ASSERT_TRUE(util::Json::parse(
      R"({"soc": {"ddr_base": 4096, "ddr_protected_base": 8192}})", j,
      &error));
  EXPECT_FALSE(spec_from_json(j, "base", spec, &error));
  EXPECT_NE(error.find("ddr_protected_base"), std::string::npos) << error;

  // Non-power-of-two line size.
  error.clear();
  ASSERT_TRUE(util::Json::parse(R"({"soc": {"line_bytes": 48}})", j, &error));
  scenario::ScenarioSpec spec2;
  EXPECT_FALSE(spec_from_json(j, "base", spec2, &error));
  EXPECT_NE(error.find("line_bytes"), std::string::npos) << error;

  // Values the CC, the IC and the Security Builder would SECBUS_ASSERT on
  // mid-run. The check budget must cover the SP fetch even with security
  // "none": a grid's security axis can turn distributed checks on.
  const std::pair<const char*, const char*> component_cases[] = {
      {"cc_bits_per_cycle", "0"},
      {"ic_bits_per_cycle", "0"},
      {"sb_check_cycles", "1"},
  };
  for (const auto& [key, value] : component_cases) {
    error.clear();
    ASSERT_TRUE(util::Json::parse(
        std::string(R"({"soc": {"security": "none", ")") + key +
            "\": " + value + "}}",
        j, &error));
    scenario::ScenarioSpec spec3;
    EXPECT_FALSE(spec_from_json(j, "base", spec3, &error)) << key;
    EXPECT_NE(error.find(std::string("base.soc.") + key), std::string::npos)
        << error;
  }
}

}  // namespace
}  // namespace secbus::campaign
