// Master/slave connection points for the system bus.
//
// A MasterEndpoint is a pair of FIFO channels (requests toward the bus,
// responses back). IPs never talk to the bus object directly: they push into
// an endpoint, and in a secured SoC a Local Firewall sits between the IP's
// endpoint and the bus-facing endpoint (Figure 1's LF position). The LF
// checks requests only; read data passes back on the strength of the
// request-time decision, so the bus hands a response straight to the LF's
// IP-side channel (ResponseGate) with the cycle the IP may first see it.
// Slave-side, devices implement SlaveDevice; the slave's firewall wraps the
// device as a decorator.
#pragma once

#include <string_view>

#include "bus/transaction.hpp"
#include "sim/component.hpp"
#include "sim/kernel.hpp"
#include "sim/types.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace secbus::bus {

// One-way FIFO of transactions. Single producer, single consumer, both
// clocked components; contents pushed in cycle N are visible to the consumer
// from its tick in cycle N (ordering inside a cycle follows kernel tick
// order, which the SoC wiring keeps producer-before-consumer).
//
// An entry may also carry a later *ready cycle*, the first cycle its
// consumer may see it (move_front_to(next, ready)): a response the bus
// delivers past a Local Firewall becomes visible when the firewall would
// have handed it on. Consumers read with ready(now) and wake at ready_at();
// a plain push is ready as soon as the entry ahead of it, so ready cycles
// never decrease along the queue.
//
// The consumer registers itself with set_consumer() when it is wired to the
// channel; every push then notifies it through its kernel, which is how a
// sleeping component learns that input has arrived (see sim::SimKernel).
// A consumer serves the front in place (front()), then forwards it to the
// next channel with move_front_to(), moves it out with take(), or discards
// it with drop_front(); no hop copies a transaction.
class TransactionChannel {
 public:
  void push(BusTransaction t) {
    notify_consumer();
    append(std::move(t), back_ready());
  }

  void set_consumer(sim::Component& consumer) noexcept {
    consumer_ = &consumer;
  }
  // The component that pops this channel; null until wired.
  [[nodiscard]] sim::Component* consumer() const noexcept { return consumer_; }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }

  // True when there is a front entry and its consumer may see it at `now`.
  [[nodiscard]] bool ready(sim::Cycle now) const noexcept {
    return !q_.empty() && q_.front().ready_at <= now;
  }
  // The front entry's ready cycle; kNeverCycle when the channel is empty.
  [[nodiscard]] sim::Cycle ready_at() const noexcept {
    return q_.empty() ? sim::kNeverCycle : q_.front().ready_at;
  }

  [[nodiscard]] BusTransaction& front() { return q_.front().t; }
  [[nodiscard]] const BusTransaction& front() const { return q_.front().t; }

  // Moves the front transaction out; the channel must not be empty.
  [[nodiscard]] BusTransaction take() {
    SECBUS_ASSERT(!q_.empty(), "take() from an empty channel");
    BusTransaction t = std::move(q_.front().t);
    q_.pop_front();
    return t;
  }
  // Moves the front transaction to the back of `next`, as push(take())
  // would, in one move; the channel must not be empty.
  void move_front_to(TransactionChannel& next) {
    move_front_to(next, next.back_ready());
  }
  // Same, but the entry is ready at cycle `ready`, which must not precede
  // the ready cycle of next's last entry.
  void move_front_to(TransactionChannel& next, sim::Cycle ready) {
    SECBUS_ASSERT(!q_.empty(), "move_front_to() from an empty channel");
    next.notify_consumer();
    next.append(std::move(q_.front().t), ready);
    q_.pop_front();
  }
  // Discards the front transaction (after front() was read in place).
  void drop_front() noexcept { q_.pop_front(); }

  void clear() { q_.clear(); }

 private:
  struct Entry {
    BusTransaction t;
    sim::Cycle ready_at = 0;
  };

  void notify_consumer() {
    if (consumer_ != nullptr && consumer_->kernel() != nullptr) {
      consumer_->kernel()->notify(*consumer_);
    }
  }
  // Ready cycle of the last entry; 0 (always ready) when empty.
  [[nodiscard]] sim::Cycle back_ready() const noexcept {
    return q_.empty() ? 0 : q_.back().ready_at;
  }
  void append(BusTransaction&& t, sim::Cycle ready) {
    SECBUS_ASSERT(ready >= back_ready(), "ready cycles must not decrease");
    Entry& e = q_.extend_back();
    e.t = std::move(t);
    e.ready_at = ready;
  }

  util::Ring<Entry> q_;
  sim::Component* consumer_ = nullptr;
};

// The master-side Local Firewall between a bus endpoint and its IP, seen
// from the bus: it checks requests only, so the bus passes each response
// through it without a tick of its own (core::LocalFirewall).
class ResponseGate {
 public:
  // Moves the front of `from`, a response `bus` completed at cycle `now`,
  // into the IP-side channel, ready at the cycle the IP may first see it.
  virtual void pass_response(TransactionChannel& from, const sim::Component& bus,
                             sim::Cycle now) = 0;

 protected:
  ~ResponseGate() = default;
};

// Connection point for one bus master.
struct MasterEndpoint {
  TransactionChannel request;   // master -> bus
  TransactionChannel response;  // bus -> master, when no gate fronts it
  // The firewall fronting this endpoint, set by its connect_bus(); the bus
  // then delivers responses through it instead of into `response`.
  ResponseGate* gate = nullptr;

  void clear() {
    request.clear();
    response.clear();
  }
};

// Result of a slave servicing a transaction's data phase.
struct AccessResult {
  sim::Cycle latency = 1;  // cycles from data-phase end to response ready
  TransStatus status = TransStatus::kOk;
};

// A bus slave: performs the data movement for a transaction and reports how
// long the access takes. Implementations must fill `t.data` on reads.
class SlaveDevice {
 public:
  virtual ~SlaveDevice() = default;
  virtual AccessResult access(BusTransaction& t, sim::Cycle now) = 0;
  [[nodiscard]] virtual std::string_view slave_name() const = 0;
  // True for fabric bridges. A transaction serviced by a bridge holds its
  // segment partly for *queueing waits* on other segments; incoming
  // crossings must not stack on top of that hold (see SystemBus::free_at),
  // so the bus records this flag per in-flight transaction.
  [[nodiscard]] virtual bool is_bridge() const noexcept { return false; }
};

}  // namespace secbus::bus
