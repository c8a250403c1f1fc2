#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "lockstep_guard.hpp"

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
    ++ticks;
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
  std::uint64_t ticks = 0;
  bool fired = false;

 private:
  std::vector<std::string>* sink_;
  Cycle wake_at_;
};

// Sleeps until mail arrives. Every executed cycle, ticked or skipped, is
// bookkeeping: an idle cycle without mail, a handled one with it.
class Inbox final : public Component {
 public:
  Inbox(std::string name, std::vector<std::string>& sink)
      : Component(std::move(name)), sink_(&sink) {}

  // The sender must call kernel()->notify(*this) first.
  void deliver() { ++mail_; }

  void tick(Cycle now) override {
    if (mail_ == 0) {
      ++idle_cycles;
      return;
    }
    handled += mail_;
    mail_ = 0;
    sink_->push_back(name() + "@" + std::to_string(now));
  }
  [[nodiscard]] Cycle next_wake(Cycle now) const override {
    return mail_ > 0 ? now : kNeverCycle;
  }
  void skip(Cycle /*now*/, Cycle n) override { idle_cycles += n; }

  std::uint64_t idle_cycles = 0;
  std::uint64_t handled = 0;

 private:
  std::vector<std::string>* sink_;
  std::uint64_t mail_ = 0;
};

// At each listed cycle, mails every target once (a target listed twice gets
// two messages, and two notifies, in the same tick).
class Sender final : public Component {
 public:
  Sender(std::string name, std::vector<Cycle> at, std::vector<Inbox*> to)
      : Component(std::move(name)), at_(std::move(at)), to_(std::move(to)) {}

  void tick(Cycle now) override {
    if (next_ >= at_.size() || at_[next_] != now) return;
    for (Inbox* box : to_) {
      kernel()->notify(*box);
      box->deliver();
    }
    ++next_;
  }
  [[nodiscard]] Cycle next_wake(Cycle /*now*/) const override {
    return next_ < at_.size() ? at_[next_] : kNeverCycle;
  }

 private:
  std::vector<Cycle> at_;
  std::vector<Inbox*> to_;
  std::size_t next_ = 0;
};

// At each scripted cycle, moves sleepers' wakes (notifying each first), in
// script order.
class Poker final : public Component {
 public:
  struct Poke {
    Cycle at;
    Sleeper* target;
    Cycle wake;
  };
  Poker(std::string name, std::vector<Poke> pokes)
      : Component(std::move(name)), pokes_(std::move(pokes)) {}

  void tick(Cycle now) override {
    while (next_ < pokes_.size() && pokes_[next_].at == now) {
      const Poke& p = pokes_[next_++];
      kernel()->notify(*p.target);
      p.target->wake_at(p.wake);
    }
  }
  [[nodiscard]] Cycle next_wake(Cycle /*now*/) const override {
    return next_ < pokes_.size() ? pokes_[next_].at : kNeverCycle;
  }

 private:
  std::vector<Poke> pokes_;
  std::size_t next_ = 0;
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

TEST(Kernel, JumpStopsAtMaxCycles) {
  SimKernel k;
  std::vector<std::string> order;
  Sleeper s("s", order, kNeverCycle);
  k.add(s);
  k.run(10);
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
  // Stepped: 500 (callback), 503 (wake) and 900 (second callback); only
  // the wake ticks the sleeper.
  EXPECT_EQ(k.ticks_dispatched(), 1u);
  EXPECT_EQ(k.cycles_skipped(), 997u);
}

TEST(KernelIdle, RunEndsTheCycleAfterTheLastWakeNotAtTheCap) {
  for (const bool lockstep : {true, false}) {
    LockstepGuard guard(lockstep);
    SimKernel k;
    std::vector<std::string> order;
    Sleeper s1("s1", order, 37);
    Sleeper s2("s2", order, 12);
    k.add(s1);
    k.add(s2);
    EXPECT_TRUE(k.run_until_idle(1000)) << "lockstep=" << lockstep;
    // The last wake fires in the tick of cycle 37; idle at the top of 38.
    EXPECT_EQ(order, (std::vector<std::string>{"s2@12", "s1@37"}));
    EXPECT_EQ(k.now(), 38u) << "lockstep=" << lockstep;
    EXPECT_EQ(s1.waited, 38u);
    EXPECT_EQ(s2.waited, 38u);
    EXPECT_EQ(k.cycles_skipped(), lockstep ? 0u : 36u);
    // Already idle: the next call returns at once.
    EXPECT_TRUE(k.run_until_idle(1000));
    EXPECT_EQ(k.now(), 38u);
  }
}

TEST(KernelIdle, PendingCallbackKeepsTheRunOpenUntilItFires) {
  for (const bool lockstep : {true, false}) {
    LockstepGuard guard(lockstep);
    SimKernel k;
    std::vector<std::string> order;
    Sleeper s("s", order, kNeverCycle);
    k.add(s);
    Cycle fired_at = kNeverCycle;
    k.schedule(500, [&] {
      fired_at = k.now();
      s.wake_at(k.now() + 3);  // the callback hands the sleeper work
    });
    EXPECT_TRUE(k.run_until_idle(1000)) << "lockstep=" << lockstep;
    EXPECT_EQ(fired_at, 500u);
    EXPECT_EQ(order, (std::vector<std::string>{"s@503"}));
    EXPECT_EQ(k.now(), 504u) << "lockstep=" << lockstep;
    EXPECT_EQ(s.waited, 504u);
  }
}

TEST(KernelIdle, ComponentThatNeverSleepsRunsToTheCap) {
  for (const bool lockstep : {true, false}) {
    LockstepGuard guard(lockstep);
    SimKernel k;
    std::vector<std::string> order;
    Probe a("a", order);
    Sleeper s("s", order, kNeverCycle);
    k.add(a);
    k.add(s);
    EXPECT_FALSE(k.run_until_idle(10)) << "lockstep=" << lockstep;
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(s.waited, 10u);
  }
}

TEST(KernelIdle, StaleCalendarEntryDoesNotHoldTheRunOpen) {
  for (const bool lockstep : {true, false}) {
    LockstepGuard guard(lockstep);
    SimKernel k;
    std::vector<std::string> order;
    Sleeper s("s", order, 30);
    // At cycle 5 the poker moves s's wake to kNeverCycle, leaving s's entry
    // for cycle 30 stale on the calendar.
    Poker poker("poker", {{5, &s, kNeverCycle}});
    k.add(s);
    k.add(poker);
    EXPECT_TRUE(k.run_until_idle(1000)) << "lockstep=" << lockstep;
    EXPECT_EQ(k.now(), 6u) << "lockstep=" << lockstep;
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(s.waited, 6u);
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
  // Every cycle is stepped for `a`, but the sleeper is never ticked.
  EXPECT_EQ(k.ticks_dispatched(), 3u);
  EXPECT_EQ(s.waited, 3u);
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
  // Each stepped cycle ticks only the sleeper that is due.
  EXPECT_EQ(k.ticks_dispatched(), 2u);
  EXPECT_LE(k.ticks_dispatched(),
            (k.now() - k.cycles_skipped()) * k.component_count());
  k.reset();
  EXPECT_EQ(k.ticks_executed(), 0u);
  EXPECT_EQ(k.ticks_dispatched(), 0u);
  EXPECT_EQ(k.wake_reads(), 0u);
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

// What a mail run produced, in one kernel mode.
struct MailRun {
  std::vector<std::string> log;
  std::vector<std::uint64_t> counters;  // idle/handled per inbox, then now
  std::uint64_t ticks_dispatched = 0;

  bool operator==(const MailRun& o) const {
    return log == o.log && counters == o.counters;
  }
};

// Registers `order` (names "box"/"box2"/"tx"/"tx2") and calls run() once
// per entry of `runs`. Senders mail at `at`; tx mails box (and box again
// when `twice`), tx2 mails box too. A callback reads box's idle count and
// delivers to it at `cb_at` when non-zero.
MailRun run_mail(bool lockstep, const std::vector<std::string>& order,
                 const std::vector<Cycle>& at, bool twice, Cycle cb_at,
                 const std::vector<Cycle>& runs) {
  LockstepGuard guard(lockstep);
  MailRun out;
  SimKernel k;
  Inbox box("box", out.log);
  Inbox box2("box2", out.log);
  std::vector<Inbox*> tx_targets{&box};
  if (twice) tx_targets.push_back(&box);
  Sender tx("tx", at, tx_targets);
  Sender tx2("tx2", at, {&box});
  for (const std::string& name : order) {
    if (name == "box") k.add(box);
    if (name == "box2") k.add(box2);
    if (name == "tx") k.add(tx);
    if (name == "tx2") k.add(tx2);
  }
  if (cb_at != 0) {
    k.schedule(cb_at, [&box, &out] {
      // A callback sees every component executed up to its cycle.
      out.counters.push_back(box.idle_cycles);
      box.deliver();
    });
  }
  for (const Cycle n : runs) {
    k.run(n);
    // Read between runs: every component has executed every cycle so far.
    out.counters.insert(out.counters.end(),
                        {box.idle_cycles, box.handled, box2.idle_cycles,
                         box2.handled, k.now()});
  }
  out.ticks_dispatched = k.ticks_dispatched();
  return out;
}

TEST(KernelNotify, LaterIndexSleeperTicksInTheSameCycle) {
  const std::vector<std::string> order{"tx", "box"};
  const MailRun oracle = run_mail(true, order, {5, 40}, false, 0, {100});
  const MailRun fast = run_mail(false, order, {5, 40}, false, 0, {100});
  EXPECT_EQ(fast.log, (std::vector<std::string>{"box@5", "box@40"}));
  EXPECT_EQ(oracle, fast);
  EXPECT_EQ(fast.counters[0], 98u);  // idle everywhere but 5 and 40
  EXPECT_EQ(fast.ticks_dispatched, 4u);
}

TEST(KernelNotify, EarlierIndexSleeperTicksInTheNextCycle) {
  const std::vector<std::string> order{"box", "tx"};
  const MailRun oracle = run_mail(true, order, {5, 40}, false, 0, {100});
  const MailRun fast = run_mail(false, order, {5, 40}, false, 0, {100});
  // Lockstep already ticked box in cycle 5 before the mail: that cycle is
  // bookkeeping, and the mail is handled in cycle 6.
  EXPECT_EQ(fast.log, (std::vector<std::string>{"box@6", "box@41"}));
  EXPECT_EQ(oracle, fast);
  EXPECT_EQ(fast.counters[0], 98u);
  EXPECT_EQ(fast.ticks_dispatched, 4u);
}

TEST(KernelNotify, DuplicateNotifiesInOneCycleTickOnce) {
  // tx notifies box twice and tx2 once more, all in the same cycle; one
  // sender comes before box and one after it.
  const std::vector<std::string> order{"tx", "box", "tx2"};
  const MailRun oracle = run_mail(true, order, {9}, true, 0, {30});
  const MailRun fast = run_mail(false, order, {9}, true, 0, {30});
  EXPECT_EQ(fast.log, (std::vector<std::string>{"box@9", "box@10"}));
  EXPECT_EQ(oracle, fast);
  EXPECT_EQ(fast.counters[1], 3u);  // every message handled
  EXPECT_EQ(fast.ticks_dispatched, 4u);
}

TEST(KernelNotify, CallbackMayMutateASleeperWithoutNotify) {
  const std::vector<std::string> order{"box2", "box"};
  const MailRun oracle = run_mail(true, order, {}, false, 30, {50});
  const MailRun fast = run_mail(false, order, {}, false, 30, {50});
  EXPECT_EQ(fast.log, (std::vector<std::string>{"box@30"}));
  EXPECT_EQ(oracle, fast);
  EXPECT_EQ(fast.counters[0], 30u);  // read by the callback
  EXPECT_EQ(fast.ticks_dispatched, 1u);
}

TEST(KernelNotify, StatsReadBetweenRunsAreExact) {
  const std::vector<std::string> order{"box", "tx", "box2"};
  const std::vector<Cycle> runs{3, 17, 1, 40};
  const MailRun oracle = run_mail(true, order, {12, 21, 50}, false, 0, runs);
  const MailRun fast = run_mail(false, order, {12, 21, 50}, false, 0, runs);
  ASSERT_EQ(fast.counters.size(), 5u * runs.size());
  EXPECT_EQ(oracle, fast);
  // box2 never gets mail: idle for every cycle run so far, at every read.
  EXPECT_EQ(fast.counters[2], 3u);
  EXPECT_EQ(fast.counters[7], 20u);
  EXPECT_EQ(fast.counters[12], 21u);
  EXPECT_EQ(fast.counters[17], 61u);
}

// What a poke run produced, in one kernel mode.
struct PokeRun {
  std::vector<std::string> log;
  std::vector<std::uint64_t> waited;  // per sleeper
  std::vector<std::uint64_t> ticks;   // per sleeper
  std::uint64_t ticks_dispatched = 0;
};

// Sleepers "a" and "b" (registered first, in that order) start asleep at
// `wake_a`/`wake_b`; a poker registered after them applies `pokes`, whose
// targets are 0 (a) or 1 (b).
PokeRun run_pokes(bool lockstep, Cycle wake_a, Cycle wake_b,
                  const std::vector<std::tuple<Cycle, int, Cycle>>& pokes,
                  Cycle n) {
  LockstepGuard guard(lockstep);
  PokeRun out;
  SimKernel k;
  Sleeper a("a", out.log, wake_a);
  Sleeper b("b", out.log, wake_b);
  std::vector<Poker::Poke> script;
  for (const auto& [at, target, wake] : pokes) {
    script.push_back({at, target == 0 ? &a : &b, wake});
  }
  Poker poker("poker", std::move(script));
  k.add(a);
  k.add(b);
  k.add(poker);
  k.run(n);
  out.waited = {a.waited, b.waited};
  out.ticks = {a.ticks, b.ticks};
  out.ticks_dispatched = k.ticks_dispatched();
  return out;
}

TEST(KernelCalendar, SameCycleWakesTickInRegistrationOrder) {
  // b (index 1) pushes its wake for cycle 20 before a (index 0) does; the
  // calendar must still tick a first. Then both move to 40 in the other
  // order, from different cycles.
  const std::vector<std::tuple<Cycle, int, Cycle>> pokes{
      {5, 1, 20}, {5, 0, 20}, {25, 0, 40}, {27, 1, 40}};
  const PokeRun oracle =
      run_pokes(true, kNeverCycle, kNeverCycle, pokes, 50);
  const PokeRun fast = run_pokes(false, kNeverCycle, kNeverCycle, pokes, 50);
  EXPECT_EQ(fast.log,
            (std::vector<std::string>{"a@20", "b@20", "a@40", "b@40"}));
  EXPECT_EQ(fast.log, oracle.log);
  EXPECT_EQ(fast.waited, oracle.waited);
  EXPECT_EQ(fast.ticks, (std::vector<std::uint64_t>{2, 2}));
}

TEST(KernelCalendar, StaleWakeEntriesTickOnceInTheDueCycle) {
  // a and b sleep until 30; the poker moves b to 10 at cycle 5 and back to
  // 30 at cycle 7. The calendar then holds b's (30, stale), (10, stale) and
  // (30, current) under a's (30): b must tick once, at 30, and cycle 10 is
  // never stepped.
  const std::vector<std::tuple<Cycle, int, Cycle>> pokes{{5, 1, 10},
                                                         {7, 1, 30}};
  const PokeRun oracle = run_pokes(true, 30, 30, pokes, 60);
  const PokeRun fast = run_pokes(false, 30, 30, pokes, 60);
  EXPECT_EQ(fast.log, (std::vector<std::string>{"a@30", "b@30"}));
  EXPECT_EQ(fast.log, oracle.log);
  EXPECT_EQ(fast.waited, oracle.waited);
  EXPECT_EQ(fast.ticks, (std::vector<std::uint64_t>{1, 1}));
  // The poker at 5 and 7, a and b at 30.
  EXPECT_EQ(fast.ticks_dispatched, 4u);
}

}  // namespace
}  // namespace secbus::sim
