#include "bus/system_bus.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::bus {

SystemBus::SystemBus(std::string name) : Component(std::move(name)) {}

MasterEndpoint& SystemBus::attach_master(sim::MasterId id, std::string master_name) {
  endpoints_.push_back(std::make_unique<MasterEndpoint>());
  endpoints_.back()->request.set_consumer(*this);
  master_ids_.push_back(id);
  MasterStats ms;
  ms.name = std::move(master_name);
  master_stats_.push_back(std::move(ms));
  requesting_.push_back(false);
  return *endpoints_.back();
}

sim::SlaveId SystemBus::add_slave(SlaveDevice& dev) {
  slaves_.push_back(&dev);
  return static_cast<sim::SlaveId>(slaves_.size() - 1);
}

void SystemBus::map_region(sim::Addr base, std::uint64_t size, sim::SlaveId slave,
                           std::string region_name) {
  SECBUS_ASSERT(slave < slaves_.size(), "map_region: unknown slave id");
  map_.add(Region{base, size, slave, std::move(region_name)});
}

void SystemBus::book(sim::Cycle start, sim::Cycle end) {
  SECBUS_ASSERT(start >= booking_tail_ && end > start,
                "bookings must be ascending, non-empty windows");
  booking_tail_ = end;
  bookings_.push_back(std::pair{start, end});
}

void SystemBus::prune_bookings(sim::Cycle now) noexcept {
  while (!bookings_.empty() && bookings_.front().second <= now) {
    bookings_.pop_front();
  }
}

bool SystemBus::booked_at(sim::Cycle now) noexcept {
  prune_bookings(now);
  return !bookings_.empty() && bookings_.front().first <= now;
}

bool SystemBus::no_requests_waiting() const noexcept {
  for (const auto& ep : endpoints_) {
    if (!ep->request.empty()) return false;
  }
  return true;
}

BusTransaction& SystemBus::current() noexcept {
  return endpoints_[current_master_]->request.front();
}

void SystemBus::start_transaction(sim::Cycle now, std::size_t master_index) {
  current_master_ = master_index;
  BusTransaction& t = current();
  t.granted_at = now;

  MasterStats& ms = master_stats_[master_index];
  ++ms.grants;
  ms.wait_cycles.add(static_cast<double>(now - t.issued_at));

  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kTransOnBus, name().c_str(), t.id,
                    t.addr, t.payload_bytes()});
  }

  state_ = State::kAddress;
  phase_remaining_ = 1;  // one address cycle
}

void SystemBus::finish_transaction(sim::Cycle now) {
  BusTransaction& t = current();
  t.completed_at = now;
  if (t.status == TransStatus::kPending) t.status = pending_result_.status;
  MasterStats& ms = master_stats_[current_master_];
  if (t.status != TransStatus::kOk) {
    ++ms.errors;
  } else {
    stats_.bytes_transferred += t.payload_bytes();
  }
  ms.service_cycles.add(static_cast<double>(now - t.granted_at));
  ms.total_cycles.add(static_cast<double>(now - t.issued_at));
  ++stats_.transactions;

  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kTransComplete, name().c_str(), t.id,
                    t.addr, static_cast<std::uint64_t>(t.status)});
  }
  MasterEndpoint& ep = *endpoints_[current_master_];
  if (ep.gate != nullptr) {
    ep.gate->pass_response(ep.request, *this, now);
  } else {
    ep.request.move_front_to(ep.response);
  }
  state_ = State::kIdle;
}

void SystemBus::tick(sim::Cycle now) {
  switch (state_) {
    case State::kIdle: {
      if (booked_at(now)) {
        // A bridged crossing occupies the segment; local masters wait.
        ++stats_.busy_cycles;
        return;
      }
      bool any = false;
      for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        requesting_[i] = !endpoints_[i]->request.empty();
        any = any || requesting_[i];
      }
      if (!any) {
        ++stats_.idle_cycles;
        return;
      }
      const int granted = arbiter_.pick(requesting_);
      SECBUS_ASSERT(granted >= 0, "arbiter returned no grant despite requests");
      start_transaction(now, static_cast<std::size_t>(granted));
      ++stats_.busy_cycles;
      // Address phase consumes this cycle.
      --phase_remaining_;
      if (phase_remaining_ == 0) {
        // Address phase done at end of this cycle: decode and start the
        // data/slave phase next cycle.
        BusTransaction& t = current();
        const Region* region = map_.region_for_range(t.addr, t.payload_bytes());
        if (region == nullptr) {
          ++stats_.decode_errors;
          t.status = TransStatus::kDecodeError;
          pending_result_ = AccessResult{1, TransStatus::kDecodeError};
          state_ = State::kDataAndSlave;
          current_is_crossing_ = false;
          phase_remaining_ = 1;  // error response next cycle
        } else {
          SlaveDevice* dev = slaves_[region->slave];
          current_is_crossing_ = dev->is_bridge();
          pending_result_ = dev->access(t, now);
          SECBUS_ASSERT(pending_result_.latency >= 1,
                        "slave access latency must be >= 1 cycle");
          state_ = State::kDataAndSlave;
          phase_remaining_ = pending_result_.latency + t.burst_len;
        }
      }
      break;
    }
    case State::kAddress:
      SECBUS_UNREACHABLE("address phase is folded into the grant cycle");
      break;
    case State::kDataAndSlave: {
      ++stats_.busy_cycles;
      --phase_remaining_;
      if (phase_remaining_ == 0) finish_transaction(now);
      break;
    }
  }
}

sim::Cycle SystemBus::next_wake(sim::Cycle now) const {
  if (state_ == State::kDataAndSlave) return now + phase_remaining_ - 1;
  if (no_requests_waiting()) return sim::kNeverCycle;
  // A waiting request is granted once no booked window covers the cycle;
  // windows may abut, so walk the chain that starts at or before `now`.
  sim::Cycle t = now;
  for (std::size_t i = 0; i < bookings_.size(); ++i) {
    const auto& [start, end] = bookings_[i];
    if (end <= t) continue;
    if (start > t) break;
    t = end;
  }
  return t;
}

void SystemBus::skip(sim::Cycle now, sim::Cycle n) {
  if (state_ == State::kDataAndSlave) {
    stats_.busy_cycles += n;
    phase_remaining_ -= n;
    return;
  }
  // Idle segment: cycles inside booked windows are busy, the rest idle.
  const sim::Cycle end = now + n;
  sim::Cycle booked = 0;
  for (std::size_t i = 0; i < bookings_.size(); ++i) {
    const auto& [start, stop] = bookings_[i];
    if (start >= end) break;
    const sim::Cycle lo = std::max(start, now);
    const sim::Cycle hi = std::min(stop, end);
    if (hi > lo) booked += hi - lo;
  }
  stats_.busy_cycles += booked;
  stats_.idle_cycles += n - booked;
  prune_bookings(end);
}

void SystemBus::reset_stats() noexcept {
  stats_ = {};
  for (auto& ms : master_stats_) {
    ms.grants = 0;
    ms.errors = 0;
    ms.wait_cycles.reset();
    ms.service_cycles.reset();
    ms.total_cycles.reset();
  }
}

void SystemBus::contribute_metrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".busy_cycles", stats_.busy_cycles);
  reg.counter(prefix + ".idle_cycles", stats_.idle_cycles);
  reg.counter(prefix + ".transactions", stats_.transactions);
  reg.counter(prefix + ".decode_errors", stats_.decode_errors);
  reg.counter(prefix + ".bytes_transferred", stats_.bytes_transferred);
  reg.counter(prefix + ".bridged_in", stats_.bridged_in);
  reg.counter(prefix + ".bridged_in_bytes", stats_.bridged_in_bytes);
  reg.gauge(prefix + ".occupancy", stats_.occupancy());
  for (const MasterStats& ms : master_stats_) {
    const std::string mp = prefix + ".master." + ms.name;
    reg.counter(mp + ".grants", ms.grants);
    reg.counter(mp + ".errors", ms.errors);
    reg.stat(mp + ".wait_cycles", ms.wait_cycles);
    reg.stat(mp + ".service_cycles", ms.service_cycles);
    reg.stat(mp + ".total_cycles", ms.total_cycles);
  }
}

void SystemBus::reset() {
  state_ = State::kIdle;
  bookings_.clear();
  booking_tail_ = 0;
  current_is_crossing_ = false;
  phase_remaining_ = 0;
  for (auto& ep : endpoints_) ep->clear();
  reset_stats();
  arbiter_.reset();
}

}  // namespace secbus::bus
