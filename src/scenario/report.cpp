#include "scenario/report.hpp"

#include <cstdio>

namespace secbus::scenario {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

BatchAggregate BatchAggregate::from(const std::vector<JobResult>& jobs) {
  BatchAggregate agg;
  agg.jobs_total = jobs.size();
  for (const JobResult& job : jobs) {
    if (job.soc.completed) ++agg.jobs_completed;
    agg.access_latency.merge(job.cpu_latency);
    agg.alerts.add(static_cast<double>(job.soc.alerts));
    agg.access_hist.merge(job.latency_hist);
    if (job.attack_ran) {
      ++agg.attacks_ran;
      if (job.detected) {
        ++agg.attacks_detected;
        agg.detection_hist.add(job.detection_latency);
      }
      if (job.containment_checked) {
        ++agg.containment_checked;
        if (job.contained) ++agg.attacks_contained;
      }
    }
  }
  agg.access_p50 = agg.access_hist.p50();
  agg.access_p95 = agg.access_hist.p95();
  agg.access_p99 = agg.access_hist.p99();
  return agg;
}

const std::vector<std::string>& batch_csv_columns() {
  static const std::vector<std::string> cols = {
      "scenario",    "variant",        "topology",
      "segments",    "max_hops",       "cpus",
      "security",    "protection",     "seed",
      "extra_rules", "line_bytes",     "cycles",
      "completed",   "txn_ok",         "txn_failed",
      "alerts",      "avg_latency",    "latency_p50",
      "latency_p95", "latency_p99",    "bus_occupancy",
      "bytes_moved", "fw_passed",      "fw_blocked",
      "attack",      "detected",       "detection_latency",
      "contained",   "victim_intact",  "flood_completed",
      "flood_blocked"};
  return cols;
}

void write_batch_csv(util::CsvWriter& csv, const std::vector<JobResult>& jobs) {
  csv.header(batch_csv_columns());
  for (const JobResult& job : jobs) {
    // Attack-outcome cells stay *empty* when the question was never posed:
    // no attack ran, detection never happened, containment/victim checks
    // don't apply to this attack kind. "0" is reserved for a real negative.
    const std::string blank;
    const std::string detected =
        job.attack_ran ? (job.detected ? "1" : "0") : blank;
    const std::string detection_latency =
        job.attack_ran && job.detected ? u64(job.detection_latency) : blank;
    const std::string contained =
        job.attack_ran && job.containment_checked ? (job.contained ? "1" : "0")
                                                  : blank;
    const std::string victim_intact =
        job.attack_ran && job.victim_checked
            ? (job.victim_data_intact ? "1" : "0")
            : blank;
    csv.row({job.name, job.variant, job.topology, u64(job.segments),
             u64(job.max_hops), u64(job.cpus), job.security,
             job.protection, u64(job.seed), u64(job.extra_rules),
             u64(job.line_bytes), u64(job.soc.cycles),
             job.soc.completed ? "1" : "0", u64(job.soc.transactions_ok),
             u64(job.soc.transactions_failed), u64(job.soc.alerts),
             fmt_double(job.soc.avg_access_latency),
             u64(job.soc.latency_p50), u64(job.soc.latency_p95),
             u64(job.soc.latency_p99),
             fmt_double(job.soc.bus_occupancy), u64(job.soc.bytes_moved),
             u64(job.fw_passed), u64(job.fw_blocked),
             job.attack, detected, detection_latency, contained,
             victim_intact, u64(job.flood_completed),
             u64(job.flood_blocked)});
  }
}

}  // namespace secbus::scenario
