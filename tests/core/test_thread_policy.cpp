// Thread-specific security — the paper's Section-VI perspective ("each
// thread has its own security level"), implemented as per-thread rule
// overlays inside a Security Policy.
#include <gtest/gtest.h>

#include "bus/system_bus.hpp"
#include "core/local_firewall.hpp"
#include "core/security_builder.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

namespace secbus::core {
namespace {

using bus::BusOp;
using bus::DataFormat;

// Base rules: RW everywhere in [0, 0x1000). Thread 1 overlay: read-only,
// and only the lower half. Thread 2 has no overlay (falls back to base).
SecurityPolicy make_thread_policy() {
  return PolicyBuilder(11)
      .allow(0x0000, 0x1000, RwAccess::kReadWrite, FormatMask::kAll, "base")
      .for_thread(1)
      .allow(0x0000, 0x800, RwAccess::kReadOnly, FormatMask::k32, "t1-ro")
      .build();
}

TEST(ThreadPolicy, RulesForSelectsOverlay) {
  const SecurityPolicy p = make_thread_policy();
  EXPECT_EQ(p.rules_for(0).size(), 1u);
  EXPECT_EQ(p.rules_for(0)[0].label, "base");
  EXPECT_EQ(p.rules_for(1)[0].label, "t1-ro");
  EXPECT_EQ(p.rules_for(2)[0].label, "base");  // fallback
  EXPECT_EQ(p.rule_count(), 2u);               // base + overlay rules
}

TEST(ThreadPolicy, EvaluatePerThread) {
  const SecurityPolicy p = make_thread_policy();
  // Thread 0 writes anywhere.
  EXPECT_TRUE(p.evaluate(BusOp::kWrite, 0x900, 4, DataFormat::kWord, 0).allowed);
  // Thread 1 cannot write at all.
  const auto t1_write = p.evaluate(BusOp::kWrite, 0x100, 4, DataFormat::kWord, 1);
  EXPECT_FALSE(t1_write.allowed);
  EXPECT_EQ(t1_write.violation, Violation::kRwViolation);
  // Thread 1 cannot touch the upper half.
  const auto t1_high = p.evaluate(BusOp::kRead, 0x900, 4, DataFormat::kWord, 1);
  EXPECT_FALSE(t1_high.allowed);
  EXPECT_EQ(t1_high.violation, Violation::kNoMatchingSegment);
  // Thread 1 reads the lower half at word width.
  EXPECT_TRUE(p.evaluate(BusOp::kRead, 0x100, 4, DataFormat::kWord, 1).allowed);
  // ... but not at byte width (overlay ADF).
  EXPECT_EQ(p.evaluate(BusOp::kRead, 0x100, 1, DataFormat::kByte, 1).violation,
            Violation::kFormatViolation);
  // Thread 2 falls back to the permissive base rules.
  EXPECT_TRUE(p.evaluate(BusOp::kWrite, 0x900, 4, DataFormat::kWord, 2).allowed);
}

TEST(ThreadPolicy, DefaultThreadZeroMatchesLegacyEvaluate) {
  const SecurityPolicy p = make_thread_policy();
  const auto explicit0 = p.evaluate(BusOp::kRead, 0x10, 4, DataFormat::kWord, 0);
  const auto implicit = p.evaluate(BusOp::kRead, 0x10, 4, DataFormat::kWord);
  EXPECT_EQ(explicit0.allowed, implicit.allowed);
}

TEST(ThreadPolicy, OverlayForThreadZeroOverridesBase) {
  const SecurityPolicy p =
      PolicyBuilder(12)
          .allow(0x0, 0x1000, RwAccess::kReadWrite)
          .for_thread(0)
          .allow(0x0, 0x100, RwAccess::kReadOnly)
          .build();
  // Thread 0 now uses its overlay, not the base rules.
  EXPECT_FALSE(p.evaluate(BusOp::kWrite, 0x10, 4, DataFormat::kWord, 0).allowed);
  EXPECT_TRUE(p.evaluate(BusOp::kWrite, 0x10, 4, DataFormat::kWord, 1).allowed);
}

TEST(ThreadPolicy, ForBaseRulesSwitchesBack) {
  const SecurityPolicy p = PolicyBuilder(13)
                               .for_thread(3)
                               .allow(0x0, 0x100, RwAccess::kReadOnly)
                               .for_base_rules()
                               .allow(0x0, 0x1000, RwAccess::kReadWrite)
                               .build();
  EXPECT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.thread_overlays.size(), 1u);
  EXPECT_TRUE(p.evaluate(BusOp::kWrite, 0x500, 4, DataFormat::kWord, 0).allowed);
  EXPECT_FALSE(p.evaluate(BusOp::kWrite, 0x500, 4, DataFormat::kWord, 3).allowed);
}

TEST(ThreadPolicyDeathTest, DuplicateOverlayAborts) {
  PolicyBuilder b(14);
  b.for_thread(1).allow(0x0, 0x100, RwAccess::kReadOnly);
  EXPECT_DEATH(b.for_thread(1), "duplicate");
}

TEST(ThreadPolicyDeathTest, OverlappingOverlayRulesAbort) {
  PolicyBuilder b(15);
  b.for_thread(1)
      .allow(0x0, 0x100, RwAccess::kReadOnly)
      .allow(0x80, 0x100, RwAccess::kReadWrite);
  EXPECT_DEATH((void)b.build(), "disjoint");
}

TEST(ThreadPolicy, SecurityBuilderRoutesThread) {
  ConfigurationMemory mem;
  mem.install(5, make_thread_policy());
  SecurityBuilder sb(mem, 5);
  EXPECT_TRUE(
      sb.run_check(BusOp::kWrite, 0x900, 4, DataFormat::kWord, 0).decision.allowed);
  EXPECT_FALSE(
      sb.run_check(BusOp::kWrite, 0x900, 4, DataFormat::kWord, 1).decision.allowed);
}

// End-to-end: the same firewall admits thread 0's write and discards the
// identical write from thread 1.
TEST(ThreadPolicy, FirewallEnforcesPerThread) {
  sim::SimKernel kernel;
  ConfigurationMemory config_mem;
  SecurityEventLog log;
  config_mem.install(1, make_thread_policy());

  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus("bus");
  const auto sid = bus.add_slave(bram);
  bus.map_region(0x0000, 0x1000, sid, "bram");
  LocalFirewall fw("lf_threads", 1, config_mem, log);
  fw.connect_bus(bus.attach_master(0, "m0"));
  kernel.add(fw);
  kernel.add(bus);

  auto submit = [&](bus::ThreadId thread) {
    bus::BusTransaction t = bus::make_write(0, 0x100, {1, 2, 3, 4});
    t.thread = thread;
    t.issued_at = kernel.now();
    fw.ip_side().request.push(std::move(t));
    EXPECT_TRUE(kernel.run_until_idle(500));
    return fw.ip_side().response.take();
  };

  EXPECT_EQ(submit(0).status, bus::TransStatus::kOk);
  EXPECT_EQ(submit(1).status, bus::TransStatus::kSecurityViolation);
  EXPECT_EQ(log.count(), 1u);
  EXPECT_EQ(bram.writes(), 1u);  // only thread 0's write landed
}

}  // namespace
}  // namespace secbus::core
