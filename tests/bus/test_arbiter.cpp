#include "bus/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>

namespace secbus::bus {
namespace {

TEST(RoundRobin, NoRequestsNoGrant) {
  RoundRobinArbiter arb;
  EXPECT_EQ(arb.pick({false, false, false}), -1);
  EXPECT_EQ(arb.pick({}), -1);
}

TEST(RoundRobin, SingleRequesterAlwaysWins) {
  RoundRobinArbiter arb;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(arb.pick({false, true, false}), 1);
  }
}

TEST(RoundRobin, RotatesAmongAllRequesters) {
  RoundRobinArbiter arb;
  const std::vector<bool> all{true, true, true};
  EXPECT_EQ(arb.pick(all), 0);
  EXPECT_EQ(arb.pick(all), 1);
  EXPECT_EQ(arb.pick(all), 2);
  EXPECT_EQ(arb.pick(all), 0);
}

TEST(RoundRobin, SkipsIdleMasters) {
  RoundRobinArbiter arb;
  EXPECT_EQ(arb.pick({true, false, true}), 0);
  EXPECT_EQ(arb.pick({true, false, true}), 2);
  EXPECT_EQ(arb.pick({true, false, true}), 0);
}

TEST(RoundRobin, StarvationFreedomUnderFullLoad) {
  RoundRobinArbiter arb;
  const std::vector<bool> all(4, true);
  std::map<int, int> grants;
  for (int i = 0; i < 400; ++i) ++grants[arb.pick(all)];
  for (int m = 0; m < 4; ++m) EXPECT_EQ(grants[m], 100) << "master " << m;
}

TEST(RoundRobin, ResetRestartsRotation) {
  RoundRobinArbiter arb;
  const std::vector<bool> all{true, true};
  EXPECT_EQ(arb.pick(all), 0);
  arb.reset();
  EXPECT_EQ(arb.pick(all), 0);
}

}  // namespace
}  // namespace secbus::bus
