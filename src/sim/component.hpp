// Component base class for the next-event simulation kernel.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace secbus::sim {

class SimKernel;

// A clocked hardware block. Every simulated cycle is *executed* in one of
// two ways, and the result must be bit-identical either way:
//   * tick(now): the kernel calls it once per cycle in registration order;
//   * skip(now, n): when every component reports next_wake(now) > now, the
//     kernel jumps over the span [now, now + n) instead, and skip() applies
//     the n cycles of per-cycle bookkeeping (countdowns, cycle counters)
//     arithmetically.
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
  // until input". Called at the top of cycle `now`, before any tick.
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
};

}  // namespace secbus::sim
