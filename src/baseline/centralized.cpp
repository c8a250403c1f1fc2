#include "baseline/centralized.hpp"

#include "util/assert.hpp"

namespace secbus::baseline {

CentralizedManager::CentralizedManager(core::ConfigurationMemory& config_mem,
                                       Config cfg)
    : config_mem_(&config_mem), cfg_(cfg) {}

CentralizedManager::CentralizedManager(core::ConfigurationMemory& config_mem)
    : CentralizedManager(config_mem, Config{}) {}

CentralizedManager::Outcome CentralizedManager::check(core::FirewallId id,
                                                      bus::BusOp op,
                                                      sim::Addr addr,
                                                      std::uint64_t len,
                                                      bus::DataFormat fmt,
                                                      sim::Cycle now,
                                                      bus::ThreadId thread) {
  Outcome out;
  // Request travels to the manager, queues until the engine is free,
  // occupies it for the check, and the verdict travels back.
  const sim::Cycle arrival = now + cfg_.wire_latency;
  const sim::Cycle start = std::max(arrival, busy_until_);
  out.queue_wait = start - arrival;
  const sim::Cycle done = start + cfg_.check_cycles;
  busy_until_ = done;
  out.latency = (done + cfg_.wire_latency) - now;

  out.decision = config_mem_->compiled(id).evaluate(op, addr, len, fmt, thread);
  ++checks_;
  queue_wait_.add(static_cast<double>(out.queue_wait));
  total_latency_.add(static_cast<double>(out.latency));
  return out;
}

void CentralizedManager::reset() {
  busy_until_ = 0;
  checks_ = 0;
  queue_wait_.reset();
  total_latency_.reset();
}

CentralizedMasterGate::CentralizedMasterGate(std::string name,
                                             core::FirewallId id,
                                             CentralizedManager& manager,
                                             core::SecurityEventLog& log)
    : Component(std::move(name)), id_(id), manager_(&manager), log_(&log) {
  ip_side_.request.set_consumer(*this);
}

void CentralizedMasterGate::tick(sim::Cycle now) {
  // Return path: responses flow straight back to the IP.
  if (bus_side_ != nullptr) {
    while (!bus_side_->response.empty()) {
      ++stats_.responses_gated;
      ip_side_.response.push(*bus_side_->response.pop());
    }
  }

  if (in_check_.has_value()) {
    SECBUS_ASSERT(check_remaining_ > 0, "centralized check underflow");
    --check_remaining_;
    if (check_remaining_ > 0) return;

    bus::BusTransaction t = std::move(*in_check_);
    in_check_.reset();
    if (decision_.allowed) {
      ++stats_.passed;
      SECBUS_ASSERT(bus_side_ != nullptr, "gate not connected to the bus");
      bus_side_->request.push(std::move(t));
    } else {
      ++stats_.blocked;
      stats_.count_violation(decision_.violation);
      log_->raise(core::Alert{now, id_, name(), decision_.violation, t.master,
                              t.op, t.addr, t.id});
      t.status = bus::TransStatus::kSecurityViolation;
      std::fill(t.data.begin(), t.data.end(), 0);
      t.completed_at = now;
      ip_side_.response.push(std::move(t));
    }
    return;
  }

  if (!ip_side_.request.empty()) {
    in_check_ = *ip_side_.request.pop();
    ++stats_.secpol_reqs;
    const auto outcome =
        manager_->check(id_, in_check_->op, in_check_->addr,
                        in_check_->payload_bytes(), in_check_->format, now,
                        in_check_->thread);
    decision_ = outcome.decision;
    check_remaining_ = outcome.latency;
    stats_.check_cycles += outcome.latency;
  }
}

sim::Cycle CentralizedMasterGate::next_wake(sim::Cycle now) const {
  if (bus_side_ != nullptr && !bus_side_->response.empty()) return now;
  if (in_check_.has_value()) return now + check_remaining_ - 1;
  return ip_side_.request.empty() ? sim::kNeverCycle : now;
}

void CentralizedMasterGate::skip(sim::Cycle /*now*/, sim::Cycle n) {
  if (in_check_.has_value()) check_remaining_ -= n;
}

void CentralizedMasterGate::reset() {
  ip_side_.clear();
  if (bus_side_ != nullptr) bus_side_->clear();
  in_check_.reset();
  check_remaining_ = 0;
  stats_ = {};
}

CentralizedSlaveGate::CentralizedSlaveGate(std::string name, core::FirewallId id,
                                           CentralizedManager& manager,
                                           core::SecurityEventLog& log,
                                           bus::SlaveDevice& inner)
    : name_(std::move(name)),
      id_(id),
      manager_(&manager),
      log_(&log),
      inner_(&inner) {}

bus::AccessResult CentralizedSlaveGate::access(bus::BusTransaction& t,
                                               sim::Cycle now) {
  ++stats_.secpol_reqs;
  const auto outcome = manager_->check(id_, t.op, t.addr,
                                       t.payload_bytes(), t.format, now,
                                       t.thread);
  stats_.check_cycles += outcome.latency;
  if (!outcome.decision.allowed) {
    ++stats_.blocked;
    stats_.count_violation(outcome.decision.violation);
    log_->raise(core::Alert{now, id_, name_, outcome.decision.violation,
                            t.master, t.op, t.addr, t.id});
    std::fill(t.data.begin(), t.data.end(), 0);
    return {outcome.latency, bus::TransStatus::kSecurityViolation};
  }
  ++stats_.passed;
  const auto inner_result = inner_->access(t, now + outcome.latency);
  return {outcome.latency + inner_result.latency, inner_result.status};
}

}  // namespace secbus::baseline
