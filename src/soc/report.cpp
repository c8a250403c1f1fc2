#include "soc/report.hpp"

#include <cstdio>

#include "util/table.hpp"

namespace secbus::soc {

namespace {

std::vector<std::string> firewall_row(const std::string& name,
                                      std::size_t segment,
                                      const core::FirewallStats& s) {
  return {name,
          std::to_string(segment),
          std::to_string(s.secpol_reqs),
          std::to_string(s.passed),
          std::to_string(s.blocked),
          std::to_string(s.check_cycles),
          std::to_string(s.violation_count(core::Violation::kNoMatchingSegment)),
          std::to_string(s.violation_count(core::Violation::kRwViolation)),
          std::to_string(s.violation_count(core::Violation::kFormatViolation)),
          std::to_string(s.violation_count(core::Violation::kRateLimited)),
          std::to_string(s.violation_count(core::Violation::kPolicyLockdown))};
}

}  // namespace

std::string render_firewall_report(Soc& soc) {
  util::TextTable table("Per-firewall activity (Figure 1 wires)");
  table.set_header({"Firewall", "segment", "secpol_req", "pass", "discard",
                    "check cyc", "seg viol", "rwa viol", "adf viol",
                    "rate-lim", "lockdown"});
  const auto segment_of = [&soc](core::FirewallId id) {
    return soc.config_mem().segment_of(id);
  };
  for (const auto& fw : soc.master_firewalls()) {
    table.add_row(firewall_row(fw->name(), segment_of(fw->id()), fw->stats()));
  }
  for (const core::SlaveFirewall* fw :
       {soc.bram_firewall(), soc.ddr_firewall()}) {
    if (fw == nullptr) continue;
    table.add_row(firewall_row(std::string(fw->slave_name()),
                               segment_of(fw->id()), fw->stats()));
  }
  return table.render();
}

std::string render_lcf_report(Soc& soc) {
  const auto* lcf = soc.lcf();
  if (lcf == nullptr) return {};
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "LCF internals (%s / %s): reads=%llu writes=%llu passthrough=%llu\n"
      "  lines enc/dec=%llu/%llu rmw=%llu integrity_failures=%llu\n"
      "  CC: %llu ops, %llu bytes, %llu cycles | IC: %llu upd, %llu ver, "
      "%llu hashes, %llu cycles\n",
      to_string(lcf->cm()), to_string(lcf->im()),
      static_cast<unsigned long long>(lcf->stats().protected_reads),
      static_cast<unsigned long long>(lcf->stats().protected_writes),
      static_cast<unsigned long long>(lcf->stats().passthrough),
      static_cast<unsigned long long>(lcf->stats().lines_encrypted),
      static_cast<unsigned long long>(lcf->stats().lines_decrypted),
      static_cast<unsigned long long>(lcf->stats().read_modify_writes),
      static_cast<unsigned long long>(lcf->stats().integrity_failures),
      static_cast<unsigned long long>(lcf->cc().stats().operations),
      static_cast<unsigned long long>(lcf->cc().stats().bytes),
      static_cast<unsigned long long>(lcf->cc().stats().cycles_charged),
      static_cast<unsigned long long>(lcf->ic().stats().updates),
      static_cast<unsigned long long>(lcf->ic().stats().verifies),
      static_cast<unsigned long long>(lcf->ic().stats().hash_invocations),
      static_cast<unsigned long long>(lcf->ic().stats().cycles_charged));
  return buf;
}

std::string render_performance_report(Soc& soc) {
  bus::Fabric& fabric = soc.fabric();
  const bool multi = fabric.segment_count() > 1;

  util::TextTable table(multi ? "Bus masters (per fabric segment)"
                              : "Bus masters");
  table.set_header({"Master", "segment", "grants", "errors", "mean wait",
                    "mean service"});
  for (std::size_t seg = 0; seg < fabric.segment_count(); ++seg) {
    for (const auto& ms : fabric.segment(seg).master_stats()) {
      table.add_row({ms.name, std::to_string(seg), std::to_string(ms.grants),
                     std::to_string(ms.errors),
                     util::TextTable::fmt(ms.wait_cycles.mean(), 1),
                     util::TextTable::fmt(ms.service_cycles.mean(), 1)});
    }
  }
  std::string out = table.render();

  char buf[320];
  if (multi) {
    util::TextTable segs("Fabric segments & bridges");
    segs.set_header({"Segment", "txns", "occupancy%", "bytes", "bridged-in"});
    for (std::size_t seg = 0; seg < fabric.segment_count(); ++seg) {
      const auto& st = fabric.segment(seg).stats();
      segs.add_row({std::string(fabric.segment(seg).name()),
                    std::to_string(st.transactions),
                    util::TextTable::fmt(100.0 * st.occupancy(), 1),
                    std::to_string(st.bytes_transferred),
                    std::to_string(st.bridged_in)});
    }
    for (const auto& bridge : fabric.bridges()) {
      const auto& bs = bridge->stats();
      segs.add_row({std::string(bridge->slave_name()),
                    std::to_string(bs.forwarded), "-",
                    std::to_string(bs.bytes_forwarded),
                    util::TextTable::fmt(bs.far_wait.mean(), 1) + " wait"});
    }
    out += segs.render();
  }
  std::snprintf(buf, sizeof(buf),
                "Fabric: %llu transactions, occupancy %.1f%%, %llu bytes | "
                "DDR: %llu reads %llu writes, row-hit %.0f%%\n",
                static_cast<unsigned long long>(fabric.transactions()),
                100.0 * fabric.occupancy(),
                static_cast<unsigned long long>(fabric.bytes_transferred()),
                static_cast<unsigned long long>(soc.ddr().stats().reads),
                static_cast<unsigned long long>(soc.ddr().stats().writes),
                100.0 * soc.ddr().stats().hit_rate());
  out += buf;
  return out;
}

std::string render_alert_report(Soc& soc, std::size_t max_alerts) {
  const auto& alerts = soc.log().alerts();
  std::string out =
      "Alerts: " + std::to_string(alerts.size()) + "\n";
  const std::size_t n = std::min(alerts.size(), max_alerts);
  for (std::size_t i = 0; i < n; ++i) {
    out += "  " + alerts[i].describe() + "\n";
  }
  if (alerts.size() > n) {
    out += "  ... (" + std::to_string(alerts.size() - n) + " more)\n";
  }
  return out;
}

std::string render_full_report(Soc& soc) {
  std::string out = render_firewall_report(soc);
  const std::string lcf = render_lcf_report(soc);
  if (!lcf.empty()) out += lcf;
  out += render_performance_report(soc);
  out += render_alert_report(soc);
  return out;
}

}  // namespace secbus::soc
