// Wake-driven simulation kernel.
//
// The kernel owns nothing: components are built and owned by the SoC layer
// (or by tests) and registered here. Each cycle the kernel
//   1. fires due delayed callbacks (schedule()), in deterministic order, then
//   2. ticks the components due this cycle, in registration order.
// Both orders are fixed, so a run is a pure function of (wiring, seeds).
//
// run() and run_until_idle() pay per event, not per component:
//   * Calendar. The kernel caches every component's next_wake() in one
//     min-heap ordered by (wake, registration index) and re-reads it only
//     after the component ticks, after it is notified, and at run entry. A
//     cycle in which no component is due and no callback fires is not
//     visited at all: time jumps to the earliest cached wake, the next
//     pending callback, or the cycle cap. A stepped cycle pops the entries
//     due in it straight off the heap, so it ticks only the components that
//     act, lowest registration index first: the lockstep order restricted
//     to them.
//   * Lazy skip. Each component remembers the first cycle it has not
//     executed. Its skipped bookkeeping is applied in one skip() just before
//     it ticks, when it is notified, before callbacks run, and for every
//     component when run()/run_until_idle() returns, so statistics read
//     between runs (and from callbacks) are exact.
//   * notify(c). A component that is about to change another component's
//     state calls notify(target) first; TransactionChannel::push does it for
//     its consumer. If the target comes later in registration order than the
//     component ticking, it is synced up to (not including) the current
//     cycle and may still tick in it; if it comes earlier, lockstep has
//     already executed its current cycle with the old state, so it is synced
//     through that cycle and acts at the next one at the earliest. Either
//     way its wake is re-read once the current tick returns.
//   * Callbacks. A cycle with schedule() callbacks due syncs every
//     component, runs the callbacks, then re-reads every wake, so a callback
//     may mutate any component without notifying.
//   * Idle. The calendar plus the pending callbacks are the kernel's one
//     record of what is still to happen. When the stale entries are popped
//     off the calendar's top and nothing is left, no component will act
//     again without outside input: run_until_idle() ends the run there.
// Results are bit-identical to ticking every component on every cycle (the
// lockstep oracle, see set_lockstep_for_testing()).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/component.hpp"
#include "sim/types.hpp"

namespace secbus::sim {

// Test hook: when true, run()/run_until_idle() tick every component on every
// cycle (no jumps) in kernels of this process. This lockstep mode is the
// oracle the differential tests compare the wake-driven kernel against.
// Takes effect at the next run call; safe to flip between runs only.
void set_lockstep_for_testing(bool lockstep) noexcept;

class SimKernel {
 public:
  SimKernel() = default;

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  // Registers a component; the kernel keeps a non-owning pointer. Components
  // must outlive the kernel's run calls. Registration order defines tick
  // order and must therefore be deterministic in the caller.
  void add(Component& c);

  // Runs exactly n cycles.
  void run(Cycle n);

  // Runs until the kernel is idle, or until `max_cycles` elapse, whichever
  // is first. Idle means no component reports a wake (every next_wake() is
  // kNeverCycle) and no schedule() callback is pending; it is checked
  // before the first cycle and after each stepped one, and the run stops at
  // the top of the first idle cycle. Returns true when the kernel went
  // idle, false at the cap.
  bool run_until_idle(Cycle max_cycles);

  // Executes a single cycle in lockstep: fires due callbacks, then ticks
  // every component. Never jumps.
  void step();

  // Announces input to `c`: call it *before* changing c's state from
  // outside c (the kernel may first apply c's skipped bookkeeping, which
  // assumes the old state). Outside a tick it does nothing: wakes are
  // re-read wholesale at run entry and after callbacks.
  void notify(Component& c);

  // Cycles after the current one until `to` can act on input `from` hands
  // it while ticking, as notify() times it: 0 when `to` ticks later in a
  // cycle, 1 when it ticks earlier (it has already executed this cycle).
  [[nodiscard]] static Cycle hand_off_delay(const Component& from,
                                            const Component& to) noexcept {
    return to.index_ <= from.index_ ? 1 : 0;
  }

  // Schedules `fn` to run at cycle `now + delay`, before components tick.
  // delay 0 means "at the start of the next step()" when called outside a
  // step, or "this cycle, before ticks" when called from another callback.
  void schedule(Cycle delay, std::function<void()> fn);

  // Resets time to 0, clears pending callbacks and work counters, and
  // resets all components.
  void reset();

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  // Component-cycles advanced: component_count() x cycles, in the lockstep
  // sense, whether a cycle was stepped or jumped. It is therefore identical
  // between kernel modes; the work actually done is ticks_dispatched().
  [[nodiscard]] std::uint64_t ticks_executed() const noexcept {
    return ticks_executed_;
  }
  // tick() calls actually made: only the due components of each stepped
  // cycle (every component per cycle in lockstep).
  [[nodiscard]] std::uint64_t ticks_dispatched() const noexcept {
    return ticks_dispatched_;
  }
  // next_wake() calls made to maintain the calendar.
  [[nodiscard]] std::uint64_t wake_reads() const noexcept {
    return wake_reads_;
  }
  // Cycles advanced by jumps instead of steps.
  [[nodiscard]] std::uint64_t cycles_skipped() const noexcept {
    return cycles_skipped_;
  }
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

 private:
  struct Scheduled {
    Cycle when;
    std::uint64_t seq;  // tie-break so equal-cycle callbacks run FIFO
    std::function<void()> fn;
  };
  struct ScheduledLater {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // Calendar entry: valid while `gen` equals the component's generation.
  struct Wake {
    Cycle when;
    std::uint32_t index;
    std::uint32_t gen;
  };
  struct WakeLater {
    bool operator()(const Wake& a, const Wake& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.index > b.index;
    }
  };

  // Fires the callbacks due at now_, in (cycle, FIFO) order.
  void fire_callbacks();
  // Wake-driven counterpart of step(): executes cycle now_ for the due
  // components only, then advances now_ past it.
  void step_due();
  // Drops stale entries off the calendar's top and returns the next cycle
  // with a due component or callback; kNeverCycle when the kernel is idle.
  Cycle next_event();
  // Advances now_ to `target` without stepping (no-op if not ahead).
  void jump(Cycle target);
  // Lockstep counterpart of next_event() == kNeverCycle: asks every
  // component for its wake.
  [[nodiscard]] bool lockstep_idle() const;
  // Applies c's skipped bookkeeping up to (not including) `through`.
  void sync(Component& c, Cycle through);
  void sync_all();
  // Re-reads c's wake into the calendar.
  void refresh(Component& c);
  // Re-reads every wake and rebuilds the calendar (run entry, callbacks).
  void refresh_all();
  void refresh_dirty();

  std::vector<Component*> components_;
  // Min-heap over (when, seq) maintained with std::push_heap/pop_heap on a
  // plain vector (rather than std::priority_queue, whose const top() forces
  // copying the std::function out on every dispatch — pop_heap lets us move
  // it). The backing storage is also reused across steps instead of being
  // reallocated.
  std::vector<Scheduled> pending_;
  // Min-heap of cached wakes by (when, index); stale entries are dropped
  // when they surface.
  std::vector<Wake> calendar_;
  // Components notified during the current tick, awaiting a wake re-read.
  std::vector<Component*> dirty_;
  // Registration index of the component ticking, or kNoActive.
  static constexpr std::uint32_t kNoActive = UINT32_MAX;
  std::uint32_t active_ = kNoActive;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t ticks_executed_ = 0;
  std::uint64_t ticks_dispatched_ = 0;
  std::uint64_t wake_reads_ = 0;
  std::uint64_t cycles_skipped_ = 0;
};

}  // namespace secbus::sim
