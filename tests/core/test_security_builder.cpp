#include "core/security_builder.hpp"

#include <gtest/gtest.h>

namespace secbus::core {
namespace {

using bus::BusOp;
using bus::DataFormat;

ConfigurationMemory make_config_mem(std::size_t rules = 4) {
  ConfigurationMemory mem;
  PolicyBuilder b(1);
  for (std::size_t i = 0; i < rules; ++i) {
    b.allow(0x1000 * i, 0x800,
            i % 2 == 0 ? RwAccess::kReadWrite : RwAccess::kReadOnly,
            FormatMask::kAll, "seg" + std::to_string(i));
  }
  mem.install(5, b.build());
  return mem;
}

TEST(SecurityBuilder, PaperTableIILatency) {
  // Table II: security rules checking = 12 cycles at the calibrated policy.
  ConfigurationMemory mem = make_config_mem(4);
  SecurityBuilder sb(mem, 5);
  EXPECT_EQ(sb.check_latency(), 12u);
}

TEST(SecurityBuilder, LatencyScalesWithRuleCount) {
  // 2 extra rules per extra cycle beyond the 4-rule calibration point.
  for (const auto& [rules, expected] :
       std::vector<std::pair<std::size_t, sim::Cycle>>{
           {1, 12}, {4, 12}, {5, 13}, {6, 13}, {8, 14}, {16, 18}}) {
    ConfigurationMemory mem = make_config_mem(rules);
    SecurityBuilder sb(mem, 5);
    EXPECT_EQ(sb.check_latency(), expected) << "rules=" << rules;
  }
}

TEST(SecurityBuilder, AllowedCheckReportsMatchedRule) {
  ConfigurationMemory mem = make_config_mem();
  SecurityBuilder sb(mem, 5);
  const auto result = sb.run_check(BusOp::kRead, 0x1010, 4, DataFormat::kWord);
  EXPECT_TRUE(result.decision.allowed);
  EXPECT_EQ(result.decision.violation, Violation::kNone);
  ASSERT_TRUE(result.decision.rule_index.has_value());
  EXPECT_EQ(*result.decision.rule_index, 1u);
  EXPECT_EQ(result.latency, 12u);
}

TEST(SecurityBuilder, SegmentMissDenied) {
  ConfigurationMemory mem = make_config_mem();
  SecurityBuilder sb(mem, 5);
  const auto result =
      sb.run_check(BusOp::kRead, 0xFF00'0000, 4, DataFormat::kWord);
  EXPECT_FALSE(result.decision.allowed);
  EXPECT_EQ(result.decision.violation, Violation::kNoMatchingSegment);
  // A denial still costs the full check.
  EXPECT_EQ(result.latency, 12u);
}

TEST(SecurityBuilder, RwViolationDenied) {
  ConfigurationMemory mem = make_config_mem();
  SecurityBuilder sb(mem, 5);
  const auto result =
      sb.run_check(BusOp::kWrite, 0x1010, 4, DataFormat::kWord);  // seg1 is RO
  EXPECT_FALSE(result.decision.allowed);
  EXPECT_EQ(result.decision.violation, Violation::kRwViolation);
}

TEST(SecurityBuilder, BudgetSetsBaseLatency) {
  ConfigurationMemory mem = make_config_mem(6);
  SecurityBuilder sb(mem, 5, 20);
  EXPECT_EQ(sb.check_latency(), 21u);  // 20 + ceil(2 extra rules / 2)
}

TEST(SecurityBuilder, PolicyUpdateTakesEffectNextCheck) {
  ConfigurationMemory mem = make_config_mem();
  SecurityBuilder sb(mem, 5);
  EXPECT_TRUE(sb.run_check(BusOp::kRead, 0x0010, 4, DataFormat::kWord)
                  .decision.allowed);
  mem.install(5, make_lockdown_policy(5));
  const auto after = sb.run_check(BusOp::kRead, 0x0010, 4, DataFormat::kWord);
  EXPECT_FALSE(after.decision.allowed);
  EXPECT_EQ(after.decision.violation, Violation::kPolicyLockdown);
}

TEST(ConfigurationMemory, GenerationBumpsOnInstall) {
  ConfigurationMemory mem;
  EXPECT_EQ(mem.generation(), 0u);
  mem.install(1, make_lockdown_policy(1));
  EXPECT_EQ(mem.generation(), 1u);
  mem.install(1, make_lockdown_policy(1));
  EXPECT_EQ(mem.generation(), 2u);
  EXPECT_TRUE(mem.has_policy(1));
  EXPECT_FALSE(mem.has_policy(2));
}

TEST(ConfigurationMemory, TotalRulesSumsPolicies) {
  ConfigurationMemory mem;
  mem.install(1, PolicyBuilder(1).allow(0, 64, RwAccess::kReadWrite).build());
  mem.install(2, PolicyBuilder(2)
                     .allow(0, 64, RwAccess::kReadWrite)
                     .allow(0x100, 64, RwAccess::kReadOnly)
                     .build());
  EXPECT_EQ(mem.total_rules(), 3u);
  EXPECT_EQ(mem.policy_count(), 2u);
}

TEST(ConfigurationMemoryDeathTest, MissingPolicyAborts) {
  ConfigurationMemory mem;
  EXPECT_DEATH((void)mem.policy(42), "no security policy");
}

TEST(SecurityBuilderDeathTest, BudgetSmallerThanFetchAborts) {
  ConfigurationMemory mem = make_config_mem();
  // A budget of 1 is below the 2-cycle SP fetch.
  EXPECT_DEATH(SecurityBuilder(mem, 5, 1), "budget");
}

}  // namespace
}  // namespace secbus::core
