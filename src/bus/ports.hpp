// Master/slave connection points for the system bus.
//
// A MasterEndpoint is a pair of FIFO channels (requests toward the bus,
// responses back). IPs never talk to the bus object directly: they push into
// an endpoint, and in a secured SoC a Local Firewall sits between the IP's
// endpoint and the bus-facing endpoint (Figure 1's LF position). Slave-side,
// devices implement SlaveDevice; the slave's firewall wraps the device as a
// decorator.
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
    q_.push_back(std::move(t));
  }

  void set_consumer(sim::Component& consumer) noexcept {
    consumer_ = &consumer;
  }
  // The component that pops this channel; null until wired.
  [[nodiscard]] sim::Component* consumer() const noexcept { return consumer_; }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }

  [[nodiscard]] BusTransaction& front() { return q_.front(); }
  [[nodiscard]] const BusTransaction& front() const { return q_.front(); }

  // Moves the front transaction out; the channel must not be empty.
  [[nodiscard]] BusTransaction take() {
    SECBUS_ASSERT(!q_.empty(), "take() from an empty channel");
    BusTransaction t = std::move(q_.front());
    q_.pop_front();
    return t;
  }
  // Moves the front transaction to the back of `next`, as push(take())
  // would, in one move; the channel must not be empty.
  void move_front_to(TransactionChannel& next) {
    SECBUS_ASSERT(!q_.empty(), "move_front_to() from an empty channel");
    next.notify_consumer();
    next.q_.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  // Discards the front transaction (after front() was read in place).
  void drop_front() noexcept { q_.pop_front(); }

  void clear() { q_.clear(); }

 private:
  void notify_consumer() {
    if (consumer_ != nullptr && consumer_->kernel() != nullptr) {
      consumer_->kernel()->notify(*consumer_);
    }
  }

  util::Ring<BusTransaction> q_;
  sim::Component* consumer_ = nullptr;
};

// Connection point for one bus master.
struct MasterEndpoint {
  TransactionChannel request;   // master -> bus
  TransactionChannel response;  // bus -> master

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
