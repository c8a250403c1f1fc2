// External-memory attack scenarios across protection levels — the executable
// form of the paper's Section III threat analysis, staged by run_scenario.
#include <gtest/gtest.h>

#include <string>

#include "scenario/scenario.hpp"
#include "soc/presets.hpp"

namespace secbus::scenario {
namespace {

using soc::ProtectionLevel;

JobResult run_external(AttackKind kind, ProtectionLevel level,
                       std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "external";
  spec.soc = soc::tiny_test_config();
  spec.soc.protection = level;
  spec.soc.seed = seed;
  spec.soc.transactions_per_cpu = 40;  // benign background noise
  spec.attack.kind = kind;
  spec.max_cycles = 300'000;
  return run_scenario(spec);
}

// One cell of the Section III.B detection table.
struct Cell {
  AttackKind kind;
  ProtectionLevel level;
  bool detected;
  bool aborted;  // the victim's final read completed with an error status
  bool intact;   // the victim's final read returned exactly what it wrote
  std::uint64_t alerts;
};

// Full protection (CM=cipher, IM=hash tree): every attack class is detected
// and the victim's read aborts instead of returning corrupted data.
// Cipher-only (the paper's "only ciphered" memory): tampering is NOT
// detected, but the attacker gets DoS, not data control — reads return
// garbage rather than attacker-chosen or stale plaintext. Plaintext (the
// paper's unprotected region): every attack succeeds silently — spoofed
// bytes, the victim's *old* data read as if current (replay), valid data
// moved from another address (relocation), random flips (corruption).
constexpr Cell kDetectionTable[] = {
    {AttackKind::kExternalSpoof, ProtectionLevel::kPlaintext, false, false, false, 0},
    {AttackKind::kExternalSpoof, ProtectionLevel::kCipherOnly, false, false, false, 0},
    {AttackKind::kExternalSpoof, ProtectionLevel::kFull, true, true, false, 1},
    {AttackKind::kExternalReplay, ProtectionLevel::kPlaintext, false, false, false, 0},
    {AttackKind::kExternalReplay, ProtectionLevel::kCipherOnly, false, false, false, 0},
    {AttackKind::kExternalReplay, ProtectionLevel::kFull, true, true, false, 1},
    {AttackKind::kExternalRelocation, ProtectionLevel::kPlaintext, false, false, false, 0},
    {AttackKind::kExternalRelocation, ProtectionLevel::kCipherOnly, false, false, false, 0},
    {AttackKind::kExternalRelocation, ProtectionLevel::kFull, true, true, false, 1},
    {AttackKind::kExternalCorruption, ProtectionLevel::kPlaintext, false, false, false, 0},
    {AttackKind::kExternalCorruption, ProtectionLevel::kCipherOnly, false, false, false, 0},
    {AttackKind::kExternalCorruption, ProtectionLevel::kFull, true, true, false, 1},
};

class DetectionTable : public ::testing::TestWithParam<Cell> {};

TEST_P(DetectionTable, CellMatchesThreatModel) {
  const Cell& cell = GetParam();
  const JobResult r = run_external(cell.kind, cell.level, 42);
  EXPECT_TRUE(r.attack_ran);
  EXPECT_TRUE(r.victim_checked);
  EXPECT_EQ(r.detected, cell.detected);
  EXPECT_EQ(r.victim_read_aborted, cell.aborted);
  EXPECT_EQ(r.victim_data_intact, cell.intact);
  EXPECT_EQ(r.soc.alerts, cell.alerts);
  EXPECT_TRUE(r.soc.completed);
  if (cell.detected) {
    // Detection happens on the next read of the tampered line, well after
    // the tamper itself: latency is positive and bounded by the run length.
    EXPECT_GT(r.detection_latency, 0u);
    EXPECT_LT(r.detection_latency, 300'000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacksAllLevels, DetectionTable, ::testing::ValuesIn(kDetectionTable),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = std::string(to_string(info.param.kind)) + "_" +
                         soc::to_string(info.param.level);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(ExternalScenarios, DeterministicAcrossRuns) {
  const JobResult a =
      run_external(AttackKind::kExternalSpoof, ProtectionLevel::kFull, 7);
  const JobResult b =
      run_external(AttackKind::kExternalSpoof, ProtectionLevel::kFull, 7);
  EXPECT_EQ(a.detection_cycle, b.detection_cycle);
  EXPECT_EQ(a.soc.alerts, b.soc.alerts);
}

TEST(ExternalScenarios, DetectionLatencyVariesWithSeed) {
  // Different background traffic shifts when the victim's read lands; the
  // scenario machinery must still detect in every case.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const JobResult r =
        run_external(AttackKind::kExternalSpoof, ProtectionLevel::kFull, seed);
    EXPECT_TRUE(r.detected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace secbus::scenario
