#include "baseline/centralized.hpp"

#include <algorithm>

namespace secbus::baseline {

CentralizedManager::CentralizedManager(core::ConfigurationMemory& config_mem,
                                       sim::Cycle check_cycles)
    : config_mem_(&config_mem), check_cycles_(check_cycles) {}

core::Verdict CentralizedManager::check(core::FirewallId firewall,
                                        const bus::BusTransaction& t,
                                        sim::Cycle now) {
  // Request travels to the manager, queues until the engine is free,
  // occupies it for the check, and the verdict travels back.
  const sim::Cycle arrival = now + kWireLatency;
  const sim::Cycle start = std::max(arrival, busy_until_);
  const sim::Cycle done = start + check_cycles_;
  busy_until_ = done;

  core::Verdict out;
  out.latency = (done + kWireLatency) - now;
  out.decision = config_mem_->compiled(firewall).evaluate(
      t.op, t.addr, t.payload_bytes(), t.format, t.thread);
  ++checks_;
  queue_wait_.add(static_cast<double>(start - arrival));
  total_latency_.add(static_cast<double>(out.latency));
  return out;
}

void CentralizedManager::reset() {
  busy_until_ = 0;
  reset_stats();
}

}  // namespace secbus::baseline
