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
  SECBUS_ASSERT(components_.size() < kNoActive, "too many components");
  c.kernel_ = this;
  c.index_ = static_cast<std::uint32_t>(components_.size());
  c.synced_ = now_;
  components_.push_back(&c);
}

void SimKernel::fire_callbacks() {
  // Due callbacks run in (cycle, FIFO) order. A callback may schedule more
  // work for the same cycle; it runs within this phase.
  while (!pending_.empty() && pending_.front().when <= now_) {
    std::pop_heap(pending_.begin(), pending_.end(), ScheduledLater{});
    Scheduled ev = std::move(pending_.back());
    pending_.pop_back();
    ev.fn();
  }
}

void SimKernel::step() {
  // Phase 1: due callbacks run before any component ticks this cycle.
  fire_callbacks();
  // Phase 2: tick all components in registration order.
  for (Component* c : components_) {
    c->tick(now_);
    c->synced_ = now_ + 1;
  }
  ticks_executed_ += components_.size();
  ticks_dispatched_ += components_.size();
  ++now_;
}

void SimKernel::sync(Component& c, Cycle through) {
  if (c.synced_ >= through) return;
  c.skip(c.synced_, through - c.synced_);
  c.synced_ = through;
}

void SimKernel::sync_all() {
  for (Component* c : components_) sync(*c, now_);
}

void SimKernel::notify(Component& c) {
  if (active_ == kNoActive) return;
  // Lockstep ticks c after the active component (same cycle, new input
  // visible) or has already ticked it this cycle (with the old state).
  sync(c, c.index_ <= active_ ? now_ + 1 : now_);
  if (!c.dirty_) {
    c.dirty_ = true;
    dirty_.push_back(&c);
  }
}

void SimKernel::refresh(Component& c) {
  const Cycle wake = c.next_wake(c.synced_);
  ++wake_reads_;
  if (wake == c.wake_) return;  // its calendar entry stands
  c.wake_ = wake;
  ++c.gen_;
  if (wake == kNeverCycle) return;
  calendar_.push_back(Wake{wake, c.index_, c.gen_});
  std::push_heap(calendar_.begin(), calendar_.end(), WakeLater{});
}

void SimKernel::refresh_all() {
  calendar_.clear();
  for (Component* c : components_) {
    c->wake_ = c->next_wake(c->synced_);
    if (c->wake_ != kNeverCycle) {
      calendar_.push_back(Wake{c->wake_, c->index_, c->gen_});
    }
  }
  wake_reads_ += components_.size();
  std::make_heap(calendar_.begin(), calendar_.end(), WakeLater{});
}

void SimKernel::refresh_dirty() {
  for (Component* c : dirty_) {
    c->dirty_ = false;
    refresh(*c);
  }
  dirty_.clear();
}

void SimKernel::step_due() {
  if (!pending_.empty() && pending_.front().when <= now_) {
    // Callbacks may touch any component: bring all of them up to date
    // first, and trust no cached wake afterwards.
    sync_all();
    fire_callbacks();
    refresh_all();
  }
  // Entries due now pop lowest index first. A notify re-read that makes a
  // later-index component due now pushes (now_, index) and pops later in
  // this loop; an earlier-index target was synced through now_, so its new
  // wake is at least now_ + 1.
  while (!calendar_.empty() && calendar_.front().when <= now_) {
    std::pop_heap(calendar_.begin(), calendar_.end(), WakeLater{});
    const Wake w = calendar_.back();
    calendar_.pop_back();
    Component& c = *components_[w.index];
    if (w.gen != c.gen_) continue;  // stale
    // Guard: already executed this cycle, or no longer due in it.
    if (c.synced_ > now_ || c.wake_ > now_) continue;
    sync(c, now_);
    c.synced_ = now_ + 1;
    active_ = c.index_;
    c.tick(now_);
    active_ = kNoActive;
    ++ticks_dispatched_;
    refresh_dirty();
    refresh(c);
  }
  ticks_executed_ += components_.size();
  ++now_;
}

Cycle SimKernel::next_event() {
  const Cycle callback = pending_.empty() ? kNeverCycle : pending_.front().when;
  while (!calendar_.empty()) {
    const Wake& top = calendar_.front();
    if (top.gen == components_[top.index]->gen_) {
      return std::min(callback, top.when);
    }
    std::pop_heap(calendar_.begin(), calendar_.end(), WakeLater{});
    calendar_.pop_back();
  }
  return callback;
}

void SimKernel::jump(Cycle target) {
  if (target <= now_) return;
  const Cycle n = target - now_;
  now_ = target;
  ticks_executed_ += n * components_.size();
  cycles_skipped_ += n;
}

bool SimKernel::lockstep_idle() const {
  if (!pending_.empty()) return false;
  for (const Component* c : components_) {
    if (c->next_wake(now_) != kNeverCycle) return false;
  }
  return true;
}

void SimKernel::run(Cycle n) {
  const Cycle end = saturating_end(now_, n);
  if (g_lockstep.load(std::memory_order_relaxed)) {
    while (now_ < end) step();
    return;
  }
  refresh_all();
  for (;;) {
    jump(std::min(next_event(), end));
    if (now_ >= end) break;
    step_due();
  }
  sync_all();
}

bool SimKernel::run_until_idle(Cycle max_cycles) {
  const Cycle end = saturating_end(now_, max_cycles);
  if (g_lockstep.load(std::memory_order_relaxed)) {
    for (;;) {
      if (lockstep_idle()) return true;
      if (now_ >= end) return false;
      step();
    }
  }
  refresh_all();
  Cycle next;
  while ((next = next_event()) != kNeverCycle) {
    jump(std::min(next, end));
    if (now_ >= end) break;
    step_due();
  }
  sync_all();
  return next == kNeverCycle;
}

void SimKernel::schedule(Cycle delay, std::function<void()> fn) {
  pending_.push_back(Scheduled{now_ + delay, seq_++, std::move(fn)});
  std::push_heap(pending_.begin(), pending_.end(), ScheduledLater{});
}

void SimKernel::reset() {
  now_ = 0;
  ticks_executed_ = 0;
  ticks_dispatched_ = 0;
  wake_reads_ = 0;
  cycles_skipped_ = 0;
  seq_ = 0;
  pending_.clear();
  calendar_.clear();
  dirty_.clear();
  for (Component* c : components_) {
    c->reset();
    c->synced_ = 0;
    c->dirty_ = false;
  }
}

}  // namespace secbus::sim
