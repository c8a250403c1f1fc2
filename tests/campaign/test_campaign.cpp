// Campaign files: grid expansion semantics (attack axis outermost, seed
// counts, labels) and the error paths a hand-written JSON file can hit —
// every error must name the offending JSON path.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

namespace secbus::campaign {
namespace {

CampaignSpec parse_ok(const std::string& text) {
  util::Json j;
  std::string error;
  EXPECT_TRUE(util::Json::parse(text, j, &error)) << error;
  CampaignSpec campaign;
  EXPECT_TRUE(campaign_from_json(j, campaign, &error)) << error;
  return campaign;
}

std::string parse_error(const std::string& text) {
  util::Json j;
  std::string error;
  EXPECT_TRUE(util::Json::parse(text, j, &error)) << error;
  CampaignSpec campaign;
  EXPECT_FALSE(campaign_from_json(j, campaign, &error));
  EXPECT_FALSE(error.empty());
  return error;
}

constexpr const char* kTinyBase = R"(
    "base": {
      "soc": {
        "processors": 1,
        "dedicated_ip": false,
        "bram_size": 65536,
        "ddr_size": 262144,
        "ddr_protected_base": 2147483648,
        "ddr_protected_size": 65536,
        "transactions_per_cpu": 10,
        "seed": 7
      },
      "max_cycles": 1000000
    })";

TEST(Campaign, AttackAxisIsOutermostAndLabelsVariants) {
  const CampaignSpec c = parse_ok(std::string(R"({
    "name": "grid",)") + kTinyBase + R"(,
    "grid": {
      "attack": ["hijack", "external-spoof"],
      "protection": ["plaintext", "cipher+integrity"],
      "seeds": 3
    }
  })");
  EXPECT_EQ(c.job_count(), 2u * 2u * 3u);
  const std::vector<scenario::ScenarioSpec> jobs = expand_campaign(c);
  ASSERT_EQ(jobs.size(), 12u);
  // Attack outermost: first half all hijack, second half all spoof.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(jobs[i].attack.kind, scenario::AttackKind::kHijack) << i;
    EXPECT_EQ(jobs[6 + i].attack.kind, scenario::AttackKind::kExternalSpoof)
        << i;
  }
  EXPECT_EQ(jobs[0].variant,
            "attack=hijack,protection=plaintext,seed=7");
  // Seed repeats derive from the base seed deterministically.
  EXPECT_EQ(jobs[1].soc.seed, scenario::derive_seed(7, 1));
  EXPECT_EQ(jobs[2].soc.seed, scenario::derive_seed(7, 2));
  // The campaign name becomes the scenario name when the base has none.
  EXPECT_EQ(jobs[0].name, "grid");
}

TEST(Campaign, AttackObjectsInheritBaseShaping) {
  const CampaignSpec c = parse_ok(std::string(R"({
    "name": "shaped",)") + kTinyBase + R"(,
    "grid": {
      "attack": [
        {"kind": "flood-in-policy", "flood_writes": 123},
        "flood-throttled"
      ]
    }
  })");
  ASSERT_EQ(c.attacks.size(), 2u);
  EXPECT_EQ(c.attacks[0].flood_writes, 123u);
  // Unset knobs keep the base plan's defaults.
  EXPECT_EQ(c.attacks[0].flood_burst_beats, c.base.attack.flood_burst_beats);
  EXPECT_EQ(c.attacks[1].kind, scenario::AttackKind::kFloodThrottled);
  EXPECT_EQ(c.attacks[1].flood_writes, c.base.attack.flood_writes);
}

TEST(Campaign, DuplicateAttackKindsGetDistinctCellLabels) {
  // Two differently-shaped floods of the same kind must not merge into one
  // report cell: their labels carry an occurrence suffix.
  const CampaignSpec c = parse_ok(std::string(R"({
    "name": "dup",)") + kTinyBase + R"(,
    "grid": {
      "attack": [
        {"kind": "flood-in-policy", "flood_writes": 50},
        "hijack",
        {"kind": "flood-in-policy", "flood_writes": 400}
      ],
      "seeds": 2
    }
  })");
  const std::vector<scenario::ScenarioSpec> jobs = expand_campaign(c);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].variant, "attack=flood-in-policy#1,seed=7");
  EXPECT_EQ(jobs[2].variant,
            "attack=hijack,seed=7");  // unique kinds keep the bare name
  EXPECT_EQ(jobs[4].variant, "attack=flood-in-policy#2,seed=7");
  EXPECT_EQ(jobs[0].attack.flood_writes, 50u);
  EXPECT_EQ(jobs[4].attack.flood_writes, 400u);
}

TEST(Campaign, ExplicitSeedArrayWinsOverDerivation) {
  const CampaignSpec c = parse_ok(std::string(R"({
    "name": "seeded",)") + kTinyBase + R"(,
    "grid": { "seeds": [101, 202] }
  })");
  ASSERT_EQ(c.axes.seeds.size(), 2u);
  EXPECT_EQ(c.axes.seeds[0], 101u);
  EXPECT_EQ(c.axes.seeds[1], 202u);
}

TEST(Campaign, NoGridMeansOneJob) {
  const CampaignSpec c =
      parse_ok(std::string(R"({"name": "solo",)") + kTinyBase + "}");
  EXPECT_EQ(c.job_count(), 1u);
  EXPECT_EQ(expand_campaign(c).size(), 1u);
}

TEST(CampaignErrors, MissingName) {
  const std::string err = parse_error("{}");
  EXPECT_NE(err.find("name"), std::string::npos) << err;
}

TEST(CampaignErrors, NameMustBeFilenameSafe) {
  // The name becomes the report filename; path separators must not let a
  // campaign file write outside the output directory.
  for (const char* bad : {"../evil", "a/b", "a\\b", ".hidden"}) {
    const std::string err = parse_error(std::string(R"({"name": ")") +
                                        (std::string(bad) == "a\\b"
                                             ? "a\\\\b"
                                             : bad) +
                                        R"("})");
    EXPECT_NE(err.find("name"), std::string::npos) << bad << ": " << err;
  }
}

TEST(CampaignErrors, UnknownTopLevelKey) {
  const std::string err =
      parse_error(R"({"name": "x", "grids": {}})");
  EXPECT_NE(err.find("grids"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
}

TEST(CampaignErrors, UnknownGridKeyNamesPath) {
  const std::string err = parse_error(
      R"({"name": "x", "grid": {"protectoin": ["full"]}})");
  EXPECT_NE(err.find("grid.protectoin"), std::string::npos) << err;
}

TEST(CampaignErrors, BadEnumInGridNamesIndexedPath) {
  const std::string err = parse_error(
      R"({"name": "x", "grid": {"protection": ["plaintext", "fulll"]}})");
  EXPECT_NE(err.find("grid.protection[1]"), std::string::npos) << err;
}

TEST(CampaignErrors, BadAttackKindNamesIndexedPath) {
  const std::string err = parse_error(
      R"({"name": "x", "grid": {"attack": ["hijack", "hijac"]}})");
  EXPECT_NE(err.find("grid.attack[1]"), std::string::npos) << err;
}

TEST(CampaignErrors, SeedCountOutOfRange) {
  const std::string err = parse_error(
      R"({"name": "x", "grid": {"seeds": 20000}})");
  EXPECT_NE(err.find("grid.seeds"), std::string::npos) << err;
  EXPECT_NE(err.find("[1, 10000]"), std::string::npos) << err;
  const std::string err0 =
      parse_error(R"({"name": "x", "grid": {"seeds": 0}})");
  EXPECT_NE(err0.find("grid.seeds"), std::string::npos) << err0;
}

TEST(CampaignErrors, PlacementOutsideEveryGridTopology) {
  const std::string err = parse_error(std::string(R"({
    "name": "x",
    "base": {"soc": {"memory_segment": 3}},
    "grid": {"topology": ["mesh2x2", "flat"]}
  })"));
  EXPECT_NE(err.find("base.soc.memory_segment"), std::string::npos) << err;
  EXPECT_NE(err.find("flat"), std::string::npos) << err;
}

TEST(CampaignErrors, CpusAxisMustFitProtectedWindow) {
  // 64 KiB protected window: 16 CPUs would get < 4 KiB each.
  const std::string err = parse_error(std::string(R"({
    "name": "x",)") + kTinyBase + R"(,
    "grid": {"cpus": [1, 16]}
  })");
  EXPECT_NE(err.find("grid.cpus[1]"), std::string::npos) << err;
}

TEST(CampaignErrors, BaseLineBytesMustTileTheProtectedWindow) {
  // 65552 is not a whole number of 64-byte lines; without this check the
  // IntegrityCore would SECBUS_ASSERT mid-run instead of failing validate.
  const std::string err = parse_error(R"({
    "name": "x",
    "base": {"soc": {"ddr_protected_size": 65552, "line_bytes": 64}}
  })");
  EXPECT_NE(err.find("base.soc.line_bytes"), std::string::npos) << err;

  // A tiling-but-not-power-of-two line count fails too (hash-tree shape).
  const std::string err2 = parse_error(R"({
    "name": "x",
    "base": {"soc": {"ddr_protected_size": 49152, "line_bytes": 16}}
  })");
  EXPECT_NE(err2.find("base.soc.line_bytes"), std::string::npos) << err2;
}

TEST(Campaign, SmallestCheckBudgetValidatesAndRuns) {
  // sb_check_cycles equal to the configuration-memory read latency (2) is
  // the smallest budget validation accepts; it must run under every
  // security mode without tripping an assert.
  const CampaignSpec campaign = parse_ok(R"({
    "name": "x",
    "base": {
      "soc": {
        "processors": 1,
        "dedicated_ip": false,
        "bram_size": 65536,
        "ddr_size": 262144,
        "ddr_protected_base": 2147483648,
        "ddr_protected_size": 65536,
        "transactions_per_cpu": 10,
        "sb_check_cycles": 2,
        "seed": 7
      },
      "max_cycles": 1000000
    },
    "grid": {"security": ["none", "distributed", "centralized"]}
  })");
  const std::vector<scenario::ScenarioSpec> specs = expand_campaign(campaign);
  ASSERT_EQ(specs.size(), 3u);
  for (const scenario::ScenarioSpec& spec : specs) {
    EXPECT_EQ(spec.soc.sb_check_cycles, 2u);
    EXPECT_TRUE(scenario::run_scenario(spec).soc.completed) << spec.variant;
  }
}

TEST(CampaignErrors, JobCapIsEnforced) {
  const std::string err = parse_error(R"({
    "name": "x",
    "grid": {"extra_rules": [0,1,2,3,4,5,6,7,8,9,
                             10,11,12,13,14,15,16,17,18,19],
             "line_bytes": [16, 32, 64, 128],
             "cpus": [1, 2, 3],
             "external_fraction": [0.1, 0.2, 0.3, 0.4, 0.5],
             "seeds": 10000}
  })");
  EXPECT_NE(err.find("cap"), std::string::npos) << err;
}

TEST(CampaignErrors, LoadFileReportsMissingFile) {
  CampaignSpec campaign;
  std::string error;
  EXPECT_FALSE(
      load_campaign_file("/nonexistent/campaign.json", campaign, &error));
  EXPECT_NE(error.find("/nonexistent/campaign.json"), std::string::npos);
}

}  // namespace
}  // namespace secbus::campaign
