#include "sim/kernel.hpp"

#include <algorithm>
#include <atomic>

#include "util/assert.hpp"

namespace secbus::sim {

namespace {

std::atomic<bool> g_lockstep{false};

// now + n without wrapping past kNeverCycle.
Cycle saturating_end(Cycle now, Cycle n) noexcept {
  return n > kNeverCycle - now ? kNeverCycle : now + n;
}

}  // namespace

void set_lockstep_for_testing(bool lockstep) noexcept {
  g_lockstep.store(lockstep, std::memory_order_relaxed);
}

void SimKernel::add(Component& c) {
  SECBUS_ASSERT(c.kernel_ == nullptr || c.kernel_ == this,
                "component already registered with another kernel");
  c.kernel_ = this;
  components_.push_back(&c);
}

void SimKernel::step() {
  // Phase 1: due callbacks (scheduled events) run before any component ticks
  // this cycle, in (cycle, FIFO) order. A callback may schedule more work for
  // the same cycle; it runs within this phase.
  while (!pending_.empty() && pending_.front().when <= now_) {
    std::pop_heap(pending_.begin(), pending_.end(), ScheduledLater{});
    Scheduled ev = std::move(pending_.back());
    pending_.pop_back();
    ev.fn();
  }
  // Phase 2: tick all components in registration order.
  for (Component* c : components_) c->tick(now_);
  ticks_executed_ += components_.size();
  ticks_dispatched_ += components_.size();
  ++now_;
}

Cycle SimKernel::jump(Cycle limit) {
  Cycle target = limit;
  if (!pending_.empty()) {
    if (pending_.front().when <= now_) return 0;
    target = std::min(target, pending_.front().when);
  }
  for (const Component* c : components_) {
    const Cycle wake = c->next_wake(now_);
    if (wake <= now_) return 0;
    target = std::min(target, wake);
  }
  const Cycle n = target - now_;  // >= 1: every bound above exceeds now_
  for (Component* c : components_) c->skip(now_, n);
  now_ = target;
  ticks_executed_ += n * components_.size();
  cycles_skipped_ += n;
  return n;
}

void SimKernel::run(Cycle n) {
  const Cycle end = saturating_end(now_, n);
  const bool lockstep = g_lockstep.load(std::memory_order_relaxed);
  while (now_ < end) {
    if (!lockstep && jump(end) > 0) continue;
    step();
  }
}

bool SimKernel::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  const Cycle end = saturating_end(now_, max_cycles);
  const bool lockstep = g_lockstep.load(std::memory_order_relaxed);
  // Jumped cycles cannot change what the predicate reads (see the header),
  // so it is evaluated once up front and then only after a stepped cycle.
  if (done()) return true;
  while (now_ < end) {
    if (!lockstep && jump(end) > 0) continue;
    step();
    if (done()) return true;
  }
  return done();
}

void SimKernel::schedule(Cycle delay, std::function<void()> fn) {
  pending_.push_back(Scheduled{now_ + delay, seq_++, std::move(fn)});
  std::push_heap(pending_.begin(), pending_.end(), ScheduledLater{});
}

void SimKernel::reset() {
  now_ = 0;
  ticks_executed_ = 0;
  ticks_dispatched_ = 0;
  cycles_skipped_ = 0;
  seq_ = 0;
  pending_.clear();
  for (Component* c : components_) c->reset();
}

}  // namespace secbus::sim
