// Next-event simulation kernel.
//
// The kernel owns nothing: components are built and owned by the SoC layer
// (or by tests) and registered here. Each cycle the kernel
//   1. fires due delayed callbacks (schedule()), in deterministic order, then
//   2. ticks every registered component in registration order.
// Both orders are fixed, so a run is a pure function of (wiring, seeds).
//
// run() and run_until() advance time by next-event jumps. At the top of a
// cycle with no callback due, the kernel asks every component for its
// next_wake(now). When all of them lie in the future, nothing but per-cycle
// bookkeeping can happen until the earliest of: that wake, the next pending
// callback, or the cycle cap. The kernel jumps there in one go, calling
// skip() on every component for the jumped span, and steps normally from
// there. A component without next_wake/skip overrides reports "wake now"
// and so keeps the kernel stepping; results are bit-identical to ticking
// every cycle (the lockstep oracle, see set_lockstep_for_testing()).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/component.hpp"
#include "sim/types.hpp"

namespace secbus::sim {

// Test hook: when true, run()/run_until() tick every component on every
// cycle (no jumps) in kernels of this process. This lockstep mode is the
// oracle the differential tests compare the next-event kernel against.
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

  // Runs until `done()` returns true (checked before the first cycle and
  // after each stepped one) or until `max_cycles` elapse, whichever is
  // first. Returns true when the predicate fired, false on timeout. The
  // predicate must depend only on component state that changes in ticks
  // (never on now() or on per-cycle bookkeeping): jumped cycles do not
  // re-evaluate it.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  // Executes a single cycle (always ticks; never jumps).
  void step();

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
  // tick() calls actually made (stepped cycles x components).
  [[nodiscard]] std::uint64_t ticks_dispatched() const noexcept {
    return ticks_dispatched_;
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

  // Jumps from the top of cycle now_ to the next cycle where a callback is
  // due or a component wakes, capped at `limit`. Returns the cycles jumped
  // (0 when something happens at now_).
  Cycle jump(Cycle limit);

  std::vector<Component*> components_;
  // Min-heap over (when, seq) maintained with std::push_heap/pop_heap on a
  // plain vector (rather than std::priority_queue, whose const top() forces
  // copying the std::function out on every dispatch — pop_heap lets us move
  // it). The backing storage is also reused across steps instead of being
  // reallocated.
  std::vector<Scheduled> pending_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t ticks_executed_ = 0;
  std::uint64_t ticks_dispatched_ = 0;
  std::uint64_t cycles_skipped_ = 0;
};

}  // namespace secbus::sim
