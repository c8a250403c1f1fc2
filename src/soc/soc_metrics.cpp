// Observability surface of the assembled SoC: snapshot_metrics() walks every
// component's Stats into an obs::Registry under the stable naming scheme, and
// reset_stats() zeroes the same accounting without disturbing simulation or
// security state. Kept out of soc.cpp so the wiring and the observability
// layers evolve independently.
#include <string>

#include "obs/registry.hpp"
#include "soc/soc.hpp"

namespace secbus::soc {

void Soc::snapshot_metrics(obs::Registry& reg) const {
  fabric_->contribute_metrics(reg);

  for (const auto& cpu : processors_) {
    cpu->contribute_metrics(reg, "ip." + cpu->name());
  }
  if (dma_ != nullptr) dma_->contribute_metrics(reg, "ip." + dma_->name());
  for (const auto& sm : scripted_) {
    const std::string prefix = "ip." + sm->name();
    const ip::ScriptedMaster::Stats& s = sm->stats();
    reg.counter(prefix + ".issued", s.issued);
    reg.counter(prefix + ".ok", s.ok);
    reg.counter(prefix + ".violations", s.violations);
    reg.counter(prefix + ".other_errors", s.other_errors);
    reg.stat(prefix + ".latency", s.latency);
  }

  ddr_->contribute_metrics(reg, "mem.ddr");

  for (const auto& fw : master_fws_) {
    fw->contribute_metrics(reg, "core." + fw->name());
  }
  if (bram_fw_ != nullptr) {
    bram_fw_->contribute_metrics(reg,
                                 "core." + std::string(bram_fw_->slave_name()));
  }
  if (ddr_fw_ != nullptr) {
    // The LCF's datapath counters follow its firewall's under one prefix.
    const std::string prefix = "core." + std::string(ddr_fw_->slave_name());
    ddr_fw_->contribute_metrics(reg, prefix);
    if (lcf_ != nullptr) lcf_->contribute_metrics(reg, prefix);
  }
  if (manager_ != nullptr) {
    reg.counter("core.manager.checks_served", manager_->checks_served());
    reg.stat("core.manager.queue_wait", manager_->queue_wait());
    reg.stat("core.manager.total_latency", manager_->total_latency());
  }
  if (reconfig_ != nullptr) {
    reg.counter("core.reconfig.lockdowns", reconfig_->lockdowns().size());
  }

  reg.counter("trace.total", trace_.total_recorded());
  for (int k = 0; k <= static_cast<int>(sim::TraceKind::kAttackAction); ++k) {
    const auto kind = static_cast<sim::TraceKind>(k);
    reg.counter(std::string("trace.") + sim::to_string(kind),
                trace_.count_of(kind));
  }

  reg.counter("soc.cycles", kernel_.now());
  reg.counter("soc.alerts", log_.count());
}

void Soc::reset_stats() {
  fabric_->reset_stats();
  for (auto& cpu : processors_) cpu->reset_stats();
  if (dma_ != nullptr) dma_->reset_stats();
  for (auto& sm : scripted_) sm->reset_stats();
  ddr_->reset_stats();
  for (auto& fw : master_fws_) fw->reset_stats();
  if (bram_fw_ != nullptr) bram_fw_->reset_stats();
  if (lcf_ != nullptr) lcf_->reset_stats();
  if (ddr_fw_ != nullptr) ddr_fw_->reset_stats();
  if (manager_ != nullptr) manager_->reset_stats();
}

}  // namespace secbus::soc
