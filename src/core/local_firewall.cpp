#include "core/local_firewall.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::core {

void contribute_firewall_metrics(obs::Registry& reg, const std::string& prefix,
                                 const FirewallStats& stats) {
  reg.counter(prefix + ".secpol_reqs", stats.secpol_reqs);
  reg.counter(prefix + ".passed", stats.passed);
  reg.counter(prefix + ".blocked", stats.blocked);
  reg.counter(prefix + ".check_cycles", stats.check_cycles);
  reg.counter(prefix + ".responses_gated", stats.responses_gated);
  // kNone is skipped: it is never counted (only denials are).
  for (std::size_t v = 1; v < kViolationKindCount; ++v) {
    reg.counter(
        prefix + ".violations." + to_string(static_cast<Violation>(v)),
        stats.violations[v]);
  }
}

namespace {

// The verdict on `t`: from the shared source when there is one, else from
// the firewall's own SB.
Verdict check(std::optional<SecurityBuilder>& sb, VerdictSource* remote,
              FirewallId id, const bus::BusTransaction& t, sim::Cycle now) {
  if (remote != nullptr) return remote->check(id, t, now);
  return sb->run_check(t.op, t.addr, t.payload_bytes(), t.format, t.thread);
}

}  // namespace

LocalFirewall::LocalFirewall(std::string name, FirewallId id,
                             ConfigurationMemory& config_mem,
                             SecurityEventLog& log, Config cfg)
    : Component(std::move(name)),
      id_(id),
      cfg_(cfg),
      sb_(std::in_place, config_mem, id, cfg.check_cycles),
      log_(&log) {
  ip_side_.request.set_consumer(*this);
  // An IP waits for one response at a time; reserving here keeps the
  // first delivery from allocating inside a run.
  gate_cycles_.reserve(4);
}

LocalFirewall::LocalFirewall(std::string name, FirewallId id,
                             VerdictSource& remote, SecurityEventLog& log)
    : Component(std::move(name)), id_(id), remote_(&remote), log_(&log) {
  ip_side_.request.set_consumer(*this);
  gate_cycles_.reserve(4);
}

void LocalFirewall::start_check(sim::Cycle now) {
  const bus::BusTransaction& t = ip_side_.request.front();
  checking_ = true;
  ++stats_.secpol_reqs;
  if (trace_ != nullptr) {
    // The issue event is back-dated to when the IP handed the transaction
    // to the LFCB queue; detail carries the queue wait it saw.
    trace_->record({t.issued_at, sim::TraceKind::kTransIssued, name().c_str(),
                    t.id, t.addr, now - t.issued_at});
    trace_->record({now, sim::TraceKind::kSecpolReq, name().c_str(), t.id,
                    t.addr, 0});
  }
  verdict_ = check(sb_, remote_, id_, t, now);
  SECBUS_ASSERT(verdict_.latency >= 1, "a check takes at least one cycle");
  stats_.check_cycles += verdict_.latency;
  // The SB starts checking in the request cycle, so its verdict is acted on
  // in the check's last cycle. A remote verdict is sent out on the request
  // cycle and acted on in the cycle it arrives back, one cycle later for
  // the same latency.
  act_at_ = now + verdict_.latency - (remote_ == nullptr ? 1 : 0);
}

void LocalFirewall::finish_check(sim::Cycle now) {
  SECBUS_ASSERT(checking_, "finish_check without a transaction");
  SECBUS_ASSERT(bus_side_ != nullptr, "firewall not connected to the bus");
  checking_ = false;
  SecurityPolicy::Decision& decision = verdict_.decision;

  if (trace_ != nullptr) {
    const bus::BusTransaction& checked = ip_side_.request.front();
    trace_->record({now, sim::TraceKind::kCheckResult, name().c_str(),
                    checked.id, checked.addr,
                    static_cast<std::uint64_t>(decision.violation)});
  }

  // DoS throttle: even rule-legal traffic is bounded per window.
  if (decision.allowed && cfg_.rate_limit_window > 0) {
    if (now - rate_window_start_ >= cfg_.rate_limit_window) {
      rate_window_start_ = now - (now % cfg_.rate_limit_window);
      rate_window_count_ = 0;
    }
    if (rate_window_count_ >= cfg_.rate_limit_max) {
      decision.allowed = false;
      decision.violation = Violation::kRateLimited;
    } else {
      ++rate_window_count_;
    }
  }

  if (decision.allowed) {
    ++stats_.passed;
    ip_side_.request.move_front_to(bus_side_->request);
    return;
  }

  // Discard path: the transaction never reaches the bus. The IP gets an
  // error response so it can continue (a hardware IP would see its strobe
  // acknowledged with an error code).
  bus::BusTransaction t = ip_side_.request.take();
  ++stats_.blocked;
  stats_.count_violation(decision.violation);
  log_->raise(Alert{now, id_, name(), decision.violation, t.master, t.op,
                    t.addr, t.id});
  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kTransDiscarded, name().c_str(), t.id,
                    t.addr, static_cast<std::uint64_t>(decision.violation)});
    trace_->record({now, sim::TraceKind::kAlert, name().c_str(), t.id, t.addr,
                    static_cast<std::uint64_t>(decision.violation)});
  }
  t.status = bus::TransStatus::kSecurityViolation;
  // Discarded data must not reach the IP (read) nor the bus (write).
  std::fill(t.data.begin(), t.data.end(), 0);
  t.completed_at = now;
  ip_side_.response.push(std::move(t));
}

void LocalFirewall::pass_response(bus::TransactionChannel& from,
                                  const sim::Component& bus, sim::Cycle now) {
  const sim::Cycle gate = now + sim::SimKernel::hand_off_delay(bus, *this);
  const sim::Component* ip = ip_side_.response.consumer();
  // With an IP to wake, the firewall is left asleep: the record changes
  // only what its clock counts from the gate cycle on, not yet passed.
  if (ip == nullptr && kernel() != nullptr) kernel()->notify(*this);
  gate_cycles_.push_back(gate);
  from.move_front_to(
      ip_side_.response,
      ip == nullptr ? gate : gate + sim::SimKernel::hand_off_delay(*this, *ip));
}

void LocalFirewall::count_gated(sim::Cycle end) noexcept {
  while (!gate_cycles_.empty() && gate_cycles_.front() < end) {
    ++stats_.responses_gated;
    gate_cycles_.pop_front();
  }
}

void LocalFirewall::tick(sim::Cycle now) {
  count_gated(now + 1);

  // One check at a time; new requests wait in the LFCB queue.
  if (!checking_) {
    if (ip_side_.request.empty()) return;
    start_check(now);
  }
  SECBUS_ASSERT(now <= act_at_, "verdict acted on late");
  if (now == act_at_) finish_check(now);
}

sim::Cycle LocalFirewall::next_wake(sim::Cycle now) const {
  sim::Cycle wake = checking_                  ? act_at_
                    : ip_side_.request.empty() ? sim::kNeverCycle
                                               : now;
  // No consumer on the IP side: the firewall stands in for it and wakes
  // at each gate cycle, so a run lasts until the response passed it.
  if (ip_side_.response.consumer() == nullptr && !gate_cycles_.empty()) {
    wake = std::min(wake, std::max(now, gate_cycles_.front()));
  }
  return wake;
}

void LocalFirewall::skip(sim::Cycle now, sim::Cycle n) { count_gated(now + n); }

void LocalFirewall::contribute_metrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  contribute_firewall_metrics(reg, prefix, stats_);
}

void LocalFirewall::reset() {
  ip_side_.clear();
  if (bus_side_ != nullptr) bus_side_->clear();
  checking_ = false;
  act_at_ = 0;
  gate_cycles_.clear();
  rate_window_start_ = 0;
  rate_window_count_ = 0;
  reset_stats();
}

SlaveFirewall::SlaveFirewall(std::string name, FirewallId id,
                             ConfigurationMemory& config_mem,
                             SecurityEventLog& log, bus::SlaveDevice& inner,
                             sim::Cycle check_cycles)
    : name_(std::move(name)),
      id_(id),
      sb_(std::in_place, config_mem, id, check_cycles),
      log_(&log),
      inner_(&inner) {}

SlaveFirewall::SlaveFirewall(std::string name, FirewallId id,
                             VerdictSource& remote, SecurityEventLog& log,
                             bus::SlaveDevice& inner)
    : name_(std::move(name)),
      id_(id),
      remote_(&remote),
      log_(&log),
      inner_(&inner) {}

bus::AccessResult SlaveFirewall::access(bus::BusTransaction& t, sim::Cycle now) {
  ++stats_.secpol_reqs;
  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kSecpolReq, name_.c_str(), t.id,
                    t.addr, 0});
  }
  const Verdict result = check(sb_, remote_, id_, t, now);
  stats_.check_cycles += result.latency;
  if (trace_ != nullptr) {
    // Stamped at check completion so the secpol_req -> check_result pair
    // spans the latency the access is charged.
    trace_->record({now + result.latency, sim::TraceKind::kCheckResult,
                    name_.c_str(), t.id, t.addr,
                    static_cast<std::uint64_t>(result.decision.violation)});
  }

  if (!result.decision.allowed) {
    ++stats_.blocked;
    raise_alert(now, result.decision.violation, t, /*discarded=*/true);
    std::fill(t.data.begin(), t.data.end(), 0);
    t.status = bus::TransStatus::kSecurityViolation;
    return {result.latency, bus::TransStatus::kSecurityViolation};
  }

  ++stats_.passed;
  // The device sees the request cycle; the check latency is added to its
  // own (an LCF stamps its DDR line transfers at this cycle).
  const auto inner_result = inner_->access(t, now);
  // An LCF datapath that fails an integrity check has already zeroed the
  // data. The access passed the rule check, so it is alerted on but not
  // counted as blocked.
  if (inner_result.status == bus::TransStatus::kIntegrityError) {
    raise_alert(now, Violation::kIntegrityFailure, t, /*discarded=*/false);
  }
  return {result.latency + inner_result.latency, inner_result.status};
}

void SlaveFirewall::raise_alert(sim::Cycle now, Violation v,
                                const bus::BusTransaction& t, bool discarded) {
  stats_.count_violation(v);
  log_->raise(Alert{now, id_, name_, v, t.master, t.op, t.addr, t.id});
  if (trace_ != nullptr) {
    if (discarded) {
      trace_->record({now, sim::TraceKind::kTransDiscarded, name_.c_str(), t.id,
                      t.addr, static_cast<std::uint64_t>(v)});
    }
    trace_->record({now, sim::TraceKind::kAlert, name_.c_str(), t.id, t.addr,
                    static_cast<std::uint64_t>(v)});
  }
}

void SlaveFirewall::contribute_metrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  contribute_firewall_metrics(reg, prefix, stats_);
}

}  // namespace secbus::core
