// Traffic-flood DoS scenarios (Section III.A: "injecting dummy data to
// create overwhelming traffic").
#include <gtest/gtest.h>

#include "attack/flood_master.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"

namespace secbus::scenario {
namespace {

using attack::FloodMaster;

// Flood staged on the one-CPU test SoC; that CPU is the victim. kNone with
// the same seed is the unflooded baseline.
ScenarioSpec flood_spec(AttackKind kind, std::uint64_t seed,
                        sim::Cycle max_cycles = 2'000'000) {
  ScenarioSpec spec;
  spec.name = "flood";
  spec.soc = soc::tiny_test_config();
  spec.soc.seed = seed;
  spec.soc.transactions_per_cpu = 150;
  spec.attack.kind = kind;
  spec.max_cycles = max_cycles;
  return spec;
}

JobResult run_flood(AttackKind kind, std::uint64_t seed,
                    sim::Cycle max_cycles = 2'000'000) {
  return run_scenario(flood_spec(kind, seed, max_cycles));
}

double victim_latency(const JobResult& r) { return r.cpu_latency.mean(); }

TEST(Flood, InPolicyFloodDegradesVictimLatency) {
  const JobResult base = run_flood(AttackKind::kNone, 42);
  const JobResult r = run_flood(AttackKind::kFloodInPolicy, 42);
  EXPECT_TRUE(r.soc.completed);
  // The flooder's traffic is legal: it competes for the bus and hurts the
  // victim's latency.
  EXPECT_EQ(r.flood_completed, 400u);
  EXPECT_EQ(r.flood_blocked, 0u);
  EXPECT_GT(r.soc.bus_occupancy, base.soc.bus_occupancy);
  EXPECT_GT(victim_latency(r), victim_latency(base));
}

TEST(Flood, OutOfPolicyFloodAbsorbedByFirewall) {
  const JobResult r = run_flood(AttackKind::kFloodOutOfPolicy, 42);
  EXPECT_TRUE(r.soc.completed);
  // Every burst died in the flooder's own Local Firewall...
  EXPECT_EQ(r.flood_completed, 0u);
  EXPECT_EQ(r.flood_blocked, 400u);
  EXPECT_TRUE(r.containment_checked);
  EXPECT_TRUE(r.contained);
  // ... so the shared bus barely noticed (occupancy strictly below the
  // in-policy flood).
  const JobResult legal = run_flood(AttackKind::kFloodInPolicy, 42);
  EXPECT_LT(r.soc.bus_occupancy, legal.soc.bus_occupancy);
}

TEST(Flood, ThrottledFloodIsSuppressedAtItsFirewall) {
  // DoS throttle: even in-policy dummy traffic is capped per window, so
  // most of the flood dies at the flooder's own LF.
  ScenarioSpec spec = flood_spec(AttackKind::kFloodThrottled, 42, 4'000'000);
  spec.attack.rate_limit_window = 1000;
  spec.attack.rate_limit_max = 2;
  const JobResult r = run_scenario(spec);
  EXPECT_TRUE(r.soc.completed);
  EXPECT_GT(r.flood_blocked, r.flood_completed);
  // The victim barely notices compared with the unthrottled legal flood.
  const JobResult open = run_flood(AttackKind::kFloodInPolicy, 42);
  EXPECT_LE(victim_latency(r), victim_latency(open));
}

TEST(Flood, ThrottledFloodSplitAtDefaultWindow) {
  // The flood-throttled builtin: AttackPlan's default throttle of 4 forwards
  // per 2000-cycle window lets 12 of the 400 bursts through.
  const NamedScenario* builtin = find_scenario("flood-throttled");
  ASSERT_NE(builtin, nullptr);
  ASSERT_EQ(builtin->spec.attack.kind, AttackKind::kFloodThrottled);
  const JobResult r = run_scenario(builtin->spec);
  EXPECT_TRUE(r.soc.completed);
  EXPECT_EQ(r.flood_completed, 12u);
  EXPECT_EQ(r.flood_blocked, 388u);
  EXPECT_EQ(r.violation_count(core::Violation::kRateLimited), 388u);
}

TEST(Flood, RoundRobinBoundsTheDamage) {
  // Even the legal flood cannot starve the victim: round-robin guarantees
  // the victim completes its workload.
  const JobResult r = run_flood(AttackKind::kFloodInPolicy, 7);
  EXPECT_TRUE(r.soc.completed);
}

TEST(FloodMaster, StopsAtConfiguredTotal) {
  FloodMaster flood("f", 1, FloodMaster::Config{0x0, 4096, 4, 10});
  EXPECT_FALSE(flood.done());
  bus::MasterEndpoint ep;
  flood.connect(ep);
  // Tick it manually: one issue per response round-trip.
  for (sim::Cycle c = 0; c < 100 && !flood.done(); ++c) {
    flood.tick(c);
    // Fake an immediate OK response.
    if (!ep.request.empty()) {
      auto t = ep.request.take();
      t.status = bus::TransStatus::kOk;
      ep.response.push(std::move(t));
    }
  }
  EXPECT_TRUE(flood.done());
  EXPECT_EQ(flood.completed(), 10u);
}

TEST(FloodMaster, CountsRejections) {
  FloodMaster flood("f", 1, FloodMaster::Config{0x0, 4096, 4, 5});
  bus::MasterEndpoint ep;
  flood.connect(ep);
  for (sim::Cycle c = 0; c < 100 && !flood.done(); ++c) {
    flood.tick(c);
    if (!ep.request.empty()) {
      auto t = ep.request.take();
      t.status = bus::TransStatus::kSecurityViolation;
      ep.response.push(std::move(t));
    }
  }
  EXPECT_TRUE(flood.done());
  EXPECT_EQ(flood.completed(), 0u);
  EXPECT_EQ(flood.rejected(), 5u);
}

}  // namespace
}  // namespace secbus::scenario
