#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "scenario/sweep.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace secbus::campaign {

namespace {

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

double CellAggregate::detection_rate() const noexcept {
  return attacks_ran > 0
             ? static_cast<double>(detected) / static_cast<double>(attacks_ran)
             : 0.0;
}

double CellAggregate::containment_rate() const noexcept {
  return containment_checked > 0 ? static_cast<double>(contained) /
                                       static_cast<double>(containment_checked)
                                 : 0.0;
}

double CellAggregate::victim_intact_rate() const noexcept {
  return victim_checked > 0 ? static_cast<double>(victim_intact) /
                                  static_cast<double>(victim_checked)
                            : 0.0;
}

CampaignReport CampaignReport::from(
    std::string name, const std::vector<scenario::JobResult>& jobs) {
  CampaignReport report;
  report.name = std::move(name);
  report.batch = scenario::BatchAggregate::from(jobs);

  // Cell index by key: a million-job campaign must aggregate in O(jobs).
  std::unordered_map<std::string, std::size_t> index;
  for (const scenario::JobResult& job : jobs) {
    std::string key = scenario::strip_variant_key(job.variant, "seed");
    if (key.empty()) key = "-";
    CellAggregate* cell = nullptr;
    const auto it = index.find(key);
    if (it != index.end()) {
      cell = &report.cells[it->second];
    } else {
      index.emplace(key, report.cells.size());
      report.cells.emplace_back();
      cell = &report.cells.back();
      cell->key = std::move(key);
      cell->attack = job.attack;
      cell->topology = job.topology;
      cell->security = job.security;
      cell->protection = job.protection;
      cell->cpus = job.cpus;
      cell->line_bytes = job.line_bytes;
      cell->extra_rules = job.extra_rules;
    }
    ++cell->jobs;
    if (job.soc.completed) ++cell->completed;
    if (job.attack_ran) {
      ++cell->attacks_ran;
      if (job.detected) {
        ++cell->detected;
        cell->detection_hist.add(job.detection_latency);
      }
      if (job.containment_checked) {
        ++cell->containment_checked;
        if (job.contained) ++cell->contained;
      }
      if (job.victim_checked) {
        ++cell->victim_checked;
        if (job.victim_data_intact) ++cell->victim_intact;
      }
    }
    cell->job_latency.add(job.soc.avg_access_latency);
    cell->access_hist.merge(job.latency_hist);
    cell->alerts += job.soc.alerts;
    cell->fw_blocked += job.fw_blocked;
  }
  return report;
}

std::vector<std::size_t> CampaignReport::ranked_weakest() const {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].attacks_ran > 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t ia, std::size_t ib) {
                     const CellAggregate& a = cells[ia];
                     const CellAggregate& b = cells[ib];
                     if (a.detection_rate() != b.detection_rate()) {
                       return a.detection_rate() < b.detection_rate();
                     }
                     // Cells that never evaluate a check rank as "fine"
                     // (rate 1) for that tiebreak, not as failing it.
                     const double ai =
                         a.victim_checked > 0 ? a.victim_intact_rate() : 1.0;
                     const double bi =
                         b.victim_checked > 0 ? b.victim_intact_rate() : 1.0;
                     if (ai != bi) return ai < bi;
                     const double ac = a.containment_checked > 0
                                           ? a.containment_rate()
                                           : 1.0;
                     const double bc = b.containment_checked > 0
                                           ? b.containment_rate()
                                           : 1.0;
                     if (ac != bc) return ac < bc;
                     return a.detection_hist.p95() > b.detection_hist.p95();
                   });
  return order;
}

const std::vector<std::string>& cell_csv_columns() {
  static const std::vector<std::string> cols = {
      "campaign",           "cell",           "attack",
      "topology",           "security",       "protection",
      "cpus",               "line_bytes",     "extra_rules",
      "jobs",               "completed",      "attacks_ran",
      "detected",           "detection_rate", "containment_checked",
      "contained",          "containment_rate",
      "victim_checked",     "victim_intact_rate",
      "detection_p50",      "detection_p95",  "detection_p99",
      "detection_max",      "avg_latency",    "access_p50",
      "access_p95",         "access_p99",     "alerts",
      "fw_blocked"};
  return cols;
}

void write_cells_csv(util::CsvWriter& csv, const CampaignReport& report) {
  csv.header(cell_csv_columns());
  const std::string blank;
  for (const CellAggregate& cell : report.cells) {
    const bool attacked = cell.attacks_ran > 0;
    const bool any_detected = cell.detected > 0;
    csv.row({report.name, cell.key, cell.attack, cell.topology, cell.security,
             cell.protection, u64(cell.cpus), u64(cell.line_bytes),
             u64(cell.extra_rules), u64(cell.jobs), u64(cell.completed),
             u64(cell.attacks_ran),
             attacked ? u64(cell.detected) : blank,
             attacked ? fmt_rate(cell.detection_rate()) : blank,
             u64(cell.containment_checked),
             cell.containment_checked > 0 ? u64(cell.contained) : blank,
             cell.containment_checked > 0 ? fmt_rate(cell.containment_rate())
                                          : blank,
             u64(cell.victim_checked),
             cell.victim_checked > 0 ? fmt_rate(cell.victim_intact_rate())
                                     : blank,
             any_detected ? u64(cell.detection_hist.p50()) : blank,
             any_detected ? u64(cell.detection_hist.p95()) : blank,
             any_detected ? u64(cell.detection_hist.p99()) : blank,
             any_detected ? u64(cell.detection_hist.max()) : blank,
             fmt_double(cell.job_latency.mean()),
             u64(cell.access_hist.p50()), u64(cell.access_hist.p95()),
             u64(cell.access_hist.p99()), u64(cell.alerts),
             u64(cell.fw_blocked)});
  }
}

namespace {

// Writes `value`, or null when the question was never posed (`defined`
// false), mirroring the CSV's empty cells.
template <typename T>
void value_or_null(util::JsonWriter& w, const char* key, bool defined,
                   const T& value) {
  w.key(key);
  if (defined) {
    w.value(value);
  } else {
    w.null();
  }
}

void write_cell(util::JsonWriter& w, const CellAggregate& cell) {
  w.begin_object()
      .member("cell", cell.key)
      .member("attack", cell.attack)
      .member("topology", cell.topology)
      .member("security", cell.security)
      .member("protection", cell.protection)
      .member("cpus", cell.cpus)
      .member("line_bytes", cell.line_bytes)
      .member("extra_rules", cell.extra_rules)
      .member("jobs", cell.jobs)
      .member("completed", cell.completed)
      .member("attacks_ran", cell.attacks_ran);
  const bool attacked = cell.attacks_ran > 0;
  value_or_null(w, "detected", attacked, cell.detected);
  value_or_null(w, "detection_rate", attacked, cell.detection_rate());
  // Denominators are always present (0 = the question was never posed in
  // this cell); the derived rates go null exactly when their denominator
  // is 0.
  w.member("containment_checked", cell.containment_checked);
  value_or_null(w, "containment_rate", cell.containment_checked > 0,
                cell.containment_rate());
  w.member("victim_checked", cell.victim_checked);
  value_or_null(w, "victim_intact_rate", cell.victim_checked > 0,
                cell.victim_intact_rate());
  w.key("detection_latency");
  if (cell.detected > 0) {
    w.begin_object()
        .member("p50", cell.detection_hist.p50())
        .member("p95", cell.detection_hist.p95())
        .member("p99", cell.detection_hist.p99())
        .member("max", cell.detection_hist.max())
        .member("mean", cell.detection_hist.mean())
        .end_object();
  } else {
    w.null();
  }
  w.member("avg_latency", cell.job_latency.mean())
      .member("access_p50", cell.access_hist.p50())
      .member("access_p95", cell.access_hist.p95())
      .member("access_p99", cell.access_hist.p99())
      .member("alerts", cell.alerts)
      .member("fw_blocked", cell.fw_blocked)
      .end_object();
}

}  // namespace

std::string campaign_json(const CampaignReport& report) {
  const scenario::BatchAggregate& batch = report.batch;
  std::string out;
  util::JsonWriter w(out, 2);
  w.begin_object()
      .member("campaign", report.name)
      .member("jobs_total", batch.jobs_total)
      .member("jobs_completed", batch.jobs_completed)
      .member("cells_total", report.cells.size());
  w.key("cells").begin_array();
  for (const CellAggregate& cell : report.cells) write_cell(w, cell);
  w.end_array();
  w.key("weakest").begin_array();
  for (const std::size_t i : report.ranked_weakest()) {
    w.value(report.cells[i].key);
  }
  w.end_array();

  const bool detected = batch.attacks_detected > 0;
  w.key("aggregate")
      .begin_object()
      .member("attacks_ran", batch.attacks_ran)
      .member("attacks_detected", batch.attacks_detected)
      .member("containment_checked", batch.containment_checked)
      .member("attacks_contained", batch.attacks_contained);
  value_or_null(w, "detection_p50", detected, batch.detection_hist.p50());
  value_or_null(w, "detection_p95", detected, batch.detection_hist.p95());
  value_or_null(w, "detection_p99", detected, batch.detection_hist.p99());
  w.member("access_latency_mean", batch.access_latency.mean())
      .member("access_p50", batch.access_p50)
      .member("access_p95", batch.access_p95)
      .member("access_p99", batch.access_p99)
      .member("alerts_total", static_cast<std::uint64_t>(batch.alerts.sum()))
      .end_object()
      .end_object();
  out += '\n';
  return out;
}

std::string metrics_json(const std::string& name,
                         const std::vector<scenario::JobResult>& jobs) {
  std::string out;
  util::JsonWriter w(out, 2);
  w.begin_object().member("campaign", name);
  w.key("jobs").begin_array();
  for (const scenario::JobResult& job : jobs) {
    if (job.metrics.empty()) continue;
    w.begin_object().member("index", job.index);
    job.metrics.write_json(w.key("metrics"));
    w.end_object();
  }
  w.end_array().end_object();
  out += '\n';
  return out;
}

std::string render_campaign_table(const CampaignReport& report,
                                  std::size_t weakest_n) {
  util::TextTable table("campaign " + report.name + ": " +
                        std::to_string(report.batch.jobs_total) + " job(s), " +
                        std::to_string(report.cells.size()) + " cell(s)");
  table.set_header({"cell", "jobs", "detect", "contain", "intact",
                    "det p50/p95/p99", "latency"});
  const auto pct = [](double v) {
    return util::TextTable::fmt(100.0 * v, 0) + "%";
  };
  for (const CellAggregate& cell : report.cells) {
    std::string det_pcts = "-";
    if (cell.detected > 0) {
      det_pcts = std::to_string(cell.detection_hist.p50()) + "/" +
                 std::to_string(cell.detection_hist.p95()) + "/" +
                 std::to_string(cell.detection_hist.p99());
    }
    table.add_row(
        {cell.key, std::to_string(cell.jobs),
         cell.attacks_ran > 0 ? pct(cell.detection_rate()) : "-",
         cell.containment_checked > 0 ? pct(cell.containment_rate()) : "-",
         cell.victim_checked > 0 ? pct(cell.victim_intact_rate()) : "-",
         det_pcts, util::TextTable::fmt(cell.job_latency.mean(), 1)});
  }
  std::string out = table.render();

  const std::vector<std::size_t> ranked = report.ranked_weakest();
  if (!ranked.empty()) {
    out += "\nweakest cells (lowest detection, most damage first):\n";
    const std::size_t n = std::min(weakest_n, ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      const CellAggregate& cell = report.cells[ranked[i]];
      char line[512];
      std::snprintf(
          line, sizeof line,
          "  %zu. %s: detected %zu/%zu (%.0f%%)%s%s\n", i + 1,
          cell.key.c_str(), cell.detected, cell.attacks_ran,
          100.0 * cell.detection_rate(),
          cell.victim_checked > 0
              ? (", victim intact " + std::to_string(cell.victim_intact) +
                 "/" + std::to_string(cell.victim_checked))
                    .c_str()
              : "",
          cell.containment_checked > 0
              ? (", contained " + std::to_string(cell.contained) + "/" +
                 std::to_string(cell.containment_checked))
                    .c_str()
              : "");
      out += line;
    }
  }
  return out;
}

}  // namespace secbus::campaign
