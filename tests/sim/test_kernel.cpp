#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace secbus::sim {
namespace {

// Records the order in which it is ticked.
class Probe final : public Component {
 public:
  Probe(std::string name, std::vector<std::string>& sink)
      : Component(std::move(name)), sink_(&sink) {}

  void tick(Cycle now) override {
    sink_->push_back(name() + "@" + std::to_string(now));
    ++ticks;
  }
  void reset() override { resets++; }

  int ticks = 0;
  int resets = 0;

 private:
  std::vector<std::string>* sink_;
};

// Sleeps until `wake_at`, counting skipped/ticked cycles as bookkeeping;
// its tick at `wake_at` logs and fires. kNeverCycle sleeps until poked.
class Sleeper final : public Component {
 public:
  Sleeper(std::string name, std::vector<std::string>& sink, Cycle wake_at)
      : Component(std::move(name)), sink_(&sink), wake_at_(wake_at) {}

  void tick(Cycle now) override {
    ++waited;
    if (now != wake_at_) return;
    sink_->push_back(name() + "@" + std::to_string(now));
    fired = true;
    wake_at_ = kNeverCycle;
  }
  [[nodiscard]] Cycle next_wake(Cycle now) const override {
    return wake_at_ > now ? wake_at_ : now;
  }
  void skip(Cycle /*now*/, Cycle n) override { waited += n; }
  void reset() override {
    waited = 0;
    fired = false;
  }
  void wake_at(Cycle when) { wake_at_ = when; }

  std::uint64_t waited = 0;  // every cycle, ticked or skipped
  bool fired = false;

 private:
  std::vector<std::string>* sink_;
  Cycle wake_at_;
};

// Sets the lockstep oracle for one test and restores the default after.
class LockstepGuard {
 public:
  explicit LockstepGuard(bool lockstep) { set_lockstep_for_testing(lockstep); }
  ~LockstepGuard() { set_lockstep_for_testing(false); }
  LockstepGuard(const LockstepGuard&) = delete;
  LockstepGuard& operator=(const LockstepGuard&) = delete;
};

TEST(Kernel, TicksComponentsInRegistrationOrder) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order), b("b", order), c("c", order);
  k.add(a);
  k.add(b);
  k.add(c);
  k.run(2);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "a@0");
  EXPECT_EQ(order[1], "b@0");
  EXPECT_EQ(order[2], "c@0");
  EXPECT_EQ(order[3], "a@1");
}

TEST(Kernel, NowAdvances) {
  SimKernel k;
  EXPECT_EQ(k.now(), 0u);
  k.run(5);
  EXPECT_EQ(k.now(), 5u);
  k.step();
  EXPECT_EQ(k.now(), 6u);
}

TEST(Kernel, ScheduleRunsAtRequestedCycleBeforeTicks) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  k.add(a);
  k.schedule(2, [&order] { order.push_back("cb@sched"); });
  k.run(4);
  // Callback fires at cycle 2, before a's tick of cycle 2.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "a@0");
  EXPECT_EQ(order[1], "a@1");
  EXPECT_EQ(order[2], "cb@sched");
  EXPECT_EQ(order[3], "a@2");
}

TEST(Kernel, ScheduledCallbacksSameCycleRunFifo) {
  SimKernel k;
  std::vector<int> order;
  k.schedule(1, [&order] { order.push_back(1); });
  k.schedule(1, [&order] { order.push_back(2); });
  k.schedule(0, [&order] { order.push_back(0); });
  k.run(3);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Kernel, CallbackMayScheduleSameCycleWork) {
  SimKernel k;
  std::vector<int> order;
  k.schedule(1, [&] {
    order.push_back(1);
    k.schedule(0, [&order] { order.push_back(2); });
  });
  k.run(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, RunUntilStopsOnPredicate) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  k.add(a);
  const bool hit = k.run_until([&a] { return a.ticks >= 3; }, 100);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.ticks, 3);
  EXPECT_EQ(k.now(), 3u);
}

TEST(Kernel, RunUntilTimesOut) {
  SimKernel k;
  const bool hit = k.run_until([] { return false; }, 10);
  EXPECT_FALSE(hit);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, JumpStopsAtMaxCycles) {
  SimKernel k;
  std::vector<std::string> order;
  Sleeper s("s", order, kNeverCycle);
  k.add(s);
  EXPECT_FALSE(k.run_until([] { return false; }, 10));
  EXPECT_EQ(k.now(), 10u);
  EXPECT_EQ(s.waited, 10u);
  EXPECT_EQ(k.cycles_skipped(), 10u);
  EXPECT_EQ(k.ticks_dispatched(), 0u);
  k.run(7);
  EXPECT_EQ(k.now(), 17u);
  EXPECT_EQ(s.waited, 17u);
}

TEST(Kernel, JumpStopsAtEarliestCallbackWhichFiresAtItsCycle) {
  SimKernel k;
  std::vector<std::string> order;
  Sleeper s("s", order, kNeverCycle);
  k.add(s);
  Cycle fired_at = kNeverCycle;
  k.schedule(900, [] {});
  k.schedule(500, [&] {
    fired_at = k.now();
    s.wake_at(k.now() + 3);  // input arrives: the sleeper acts soon after
  });
  k.run(1000);
  EXPECT_EQ(fired_at, 500u);
  EXPECT_EQ(order, (std::vector<std::string>{"s@503"}));
  EXPECT_EQ(s.waited, 1000u);
  // Stepped: 500 (callback), 503 (wake) and 900 (second callback).
  EXPECT_EQ(k.ticks_dispatched(), 3u);
  EXPECT_EQ(k.cycles_skipped(), 997u);
}

TEST(Kernel, RunUntilReturnsAtFirstCycleThePredicateHolds) {
  for (const bool lockstep : {true, false}) {
    LockstepGuard guard(lockstep);
    SimKernel k;
    std::vector<std::string> order;
    Sleeper s("s", order, 37);
    k.add(s);
    EXPECT_TRUE(k.run_until([&s] { return s.fired; }, 1000));
    // Fired in the tick of cycle 37; seen at the top of cycle 38.
    EXPECT_EQ(k.now(), 38u) << "lockstep=" << lockstep;
    EXPECT_EQ(s.waited, 38u);
    EXPECT_EQ(k.cycles_skipped(), lockstep ? 0u : 37u);
  }
}

TEST(Kernel, ComponentWithoutOverrideIsTickedEveryCycle) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  Sleeper s("s", order, kNeverCycle);
  k.add(a);
  k.add(s);
  k.run(3);
  EXPECT_EQ(order, (std::vector<std::string>{"a@0", "a@1", "a@2"}));
  EXPECT_EQ(k.cycles_skipped(), 0u);
  EXPECT_EQ(k.ticks_dispatched(), 6u);
}

TEST(Kernel, WorkCountersAddUpAndResetClearsThem) {
  SimKernel k;
  std::vector<std::string> order;
  Sleeper s1("s1", order, 40);
  Sleeper s2("s2", order, 90);
  k.add(s1);
  k.add(s2);
  k.run(100);
  EXPECT_EQ(order, (std::vector<std::string>{"s1@40", "s2@90"}));
  // ticks_executed keeps its lockstep meaning: components x cycles.
  EXPECT_EQ(k.ticks_executed(), 200u);
  EXPECT_EQ(k.cycles_skipped(), 98u);
  EXPECT_EQ(k.ticks_dispatched(), 4u);
  EXPECT_EQ(k.ticks_executed(),
            k.ticks_dispatched() + k.cycles_skipped() * k.component_count());
  k.reset();
  EXPECT_EQ(k.ticks_executed(), 0u);
  EXPECT_EQ(k.ticks_dispatched(), 0u);
  EXPECT_EQ(k.cycles_skipped(), 0u);
}

TEST(Kernel, ResetRestoresTimeAndComponents) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  k.add(a);
  k.schedule(50, [] {});
  k.run(3);
  k.reset();
  EXPECT_EQ(k.now(), 0u);
  EXPECT_EQ(a.resets, 1);
  // The pending callback at cycle 50 was dropped: running 60 cycles after
  // reset re-executes ticks but no stale callback.
  order.clear();
  k.run(1);
  EXPECT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "a@0");
}

TEST(Kernel, TicksExecutedCountsAllComponents) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order), b("b", order);
  k.add(a);
  k.add(b);
  k.run(10);
  EXPECT_EQ(k.ticks_executed(), 20u);
  EXPECT_EQ(k.component_count(), 2u);
}

}  // namespace
}  // namespace secbus::sim
