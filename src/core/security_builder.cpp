#include "core/security_builder.hpp"

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace secbus::core {

SecurityBuilder::SecurityBuilder(ConfigurationMemory& config_mem,
                                 FirewallId firewall,
                                 sim::Cycle base_check_cycles)
    : config_mem_(&config_mem),
      firewall_(firewall),
      base_check_cycles_(base_check_cycles) {
  SECBUS_ASSERT(base_check_cycles >= config_mem.read_latency(),
                "base check budget must cover the SP fetch");
}

void SecurityBuilder::refresh_policy_cache() const {
  if (cached_generation_ == config_mem_->generation()) return;
  compiled_ = &config_mem_->compiled(firewall_);
  cached_latency_ = base_check_cycles_;
  if (compiled_->rule_count() > kCalibratedRules) {
    const std::uint64_t extra = compiled_->rule_count() - kCalibratedRules;
    cached_latency_ += util::ceil_div(extra, kRulesPerExtraCycle);
  }
  cached_generation_ = config_mem_->generation();
}

sim::Cycle SecurityBuilder::check_latency() const {
  refresh_policy_cache();
  return cached_latency_;
}

Verdict SecurityBuilder::run_check(bus::BusOp op, sim::Addr addr,
                                   std::uint64_t len, bus::DataFormat fmt,
                                   bus::ThreadId thread) {
  refresh_policy_cache();
  return {compiled_->evaluate(op, addr, len, fmt, thread), cached_latency_};
}

}  // namespace secbus::core
