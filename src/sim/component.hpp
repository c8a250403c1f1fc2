// Component base class for the wake-driven simulation kernel.
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace secbus::sim {

class SimKernel;

// A clocked hardware block. Every simulated cycle is *executed* in one of
// two ways, and the result must be bit-identical either way:
//   * tick(now): the kernel calls it for cycle `now`; components ticked in
//     the same cycle run in registration order;
//   * skip(now, n): for a span [now, now + n) that lies before the
//     component's next_wake(now), the kernel may skip() instead, which
//     applies the n cycles of per-cycle bookkeeping (countdowns, cycle
//     counters) arithmetically. The kernel applies skip() lazily, in spans
//     of any length, just before the component is ticked, notified or read.
// Determinism comes from the fixed tick order plus the rule that components
// exchange data only through explicit queues whose contents are consumed on
// the *next* cycle (one-cycle wire delay, like a registered output in RTL).
// Combinational shortcuts are allowed inside a single component but never
// across components.
//
// The exactness rule for next_wake()/skip(): a component may report a wake
// later than `now` only if its ticks before that wake would change nothing
// but the bookkeeping skip() reproduces, assuming no new input arrives. The
// defaults (wake now, skip nothing) keep a component ticked every cycle, so
// a component that overrides neither is always exact.
//
// "No new input" is what the kernel relies on to leave a sleeping component
// alone, so every input must announce itself: before one component changes
// another's state, it calls kernel()->notify(target). A TransactionChannel
// does this for its registered consumer on every push; anything else that
// reaches into another component (a bridge booking a far segment) must call
// notify itself, before the mutation.
class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  // Advance one clock cycle. `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  // Earliest cycle >= now whose tick would do more than per-cycle
  // bookkeeping, assuming no new input arrives; kNeverCycle means "idle
  // until input". `now` is the first cycle the component has not executed.
  // Skipping cycles before the wake must not move it: after skip(now, n),
  // next_wake(now + n) returns the same cycle. The kernel ends a run once
  // every component reports kNeverCycle (SimKernel::run_until_idle), so a
  // component that still has work must not report it.
  [[nodiscard]] virtual Cycle next_wake(Cycle now) const { return now; }

  // Applies the bookkeeping of the n cycles [now, now + n), all of which
  // precede next_wake(now). Only called with n >= 1.
  virtual void skip(Cycle /*now*/, Cycle /*n*/) {}

  // Return to power-on state. Kernel reset() calls this on every component.
  virtual void reset() {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Set by the kernel at registration; null until then.
  [[nodiscard]] SimKernel* kernel() const noexcept { return kernel_; }

 private:
  friend class SimKernel;
  std::string name_;
  SimKernel* kernel_ = nullptr;
  // Kernel bookkeeping (see SimKernel): registration index, the first cycle
  // not yet executed (ticked or skipped), the cached next_wake and its
  // calendar generation, and whether a notify asked for a wake re-read.
  std::uint32_t index_ = 0;
  std::uint32_t gen_ = 0;
  Cycle synced_ = 0;
  Cycle wake_ = 0;
  bool dirty_ = false;
};

}  // namespace secbus::sim
