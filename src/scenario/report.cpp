#include "scenario/report.hpp"

#include <cstdio>

#include "util/json.hpp"
#include "util/table.hpp"

namespace secbus::scenario {

namespace {

// Latency histogram range: per-job mean access latencies sit in the tens to
// hundreds of cycles even under full protection; 1-cycle buckets up to 4096
// keep the percentile interpolation sharp and clamp pathological outliers.
constexpr double kLatencyHistLo = 0.0;
constexpr double kLatencyHistHi = 4096.0;
constexpr std::size_t kLatencyHistBuckets = 4096;

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
  util::Histogram latency_hist(kLatencyHistLo, kLatencyHistHi,
                               kLatencyHistBuckets);
  for (const JobResult& job : jobs) {
    if (job.soc.completed) ++agg.jobs_completed;
    agg.cycles.add(static_cast<double>(job.soc.cycles));
    agg.latency.add(job.soc.avg_access_latency);
    agg.access_latency.merge(job.cpu_latency);
    agg.bus_occupancy.add(job.soc.bus_occupancy);
    agg.alerts.add(static_cast<double>(job.soc.alerts));
    agg.blocked.add(static_cast<double>(job.fw_blocked));
    latency_hist.add(job.soc.avg_access_latency);
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
  agg.latency_p50 = latency_hist.percentile(50);
  agg.latency_p95 = latency_hist.percentile(95);
  agg.latency_p99 = latency_hist.percentile(99);
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

std::string batch_json(const std::string& scenario_name,
                       const std::vector<JobResult>& jobs,
                       const BatchAggregate& aggregate) {
  std::string out;
  util::JsonWriter j(out);
  // Batch reports print doubles as %.6g, spliced in as raw numbers.
  const auto real = [&j](const char* key, double v) {
    j.key(key).raw(fmt_double(v));
  };
  j.begin_object()
      .member("scenario", scenario_name)
      .member("jobs_total", aggregate.jobs_total)
      .member("jobs_completed", aggregate.jobs_completed);
  j.key("jobs").begin_array();
  for (const JobResult& job : jobs) {
    j.begin_object()
        .member("index", job.index)
        .member("variant", job.variant)
        .member("topology", job.topology)
        .member("segments", job.segments)
        .member("max_hops", job.max_hops)
        .member("cpus", job.cpus)
        .member("security", job.security)
        .member("protection", job.protection)
        .member("seed", job.seed)
        .member("extra_rules", job.extra_rules)
        .member("line_bytes", job.line_bytes)
        .member("cycles", job.soc.cycles)
        .member("completed", job.soc.completed)
        .member("txn_ok", job.soc.transactions_ok)
        .member("txn_failed", job.soc.transactions_failed)
        .member("alerts", job.soc.alerts);
    real("avg_latency", job.soc.avg_access_latency);
    j.member("latency_p50", job.soc.latency_p50)
        .member("latency_p95", job.soc.latency_p95)
        .member("latency_p99", job.soc.latency_p99)
        .member("latency_max", job.soc.latency_max);
    real("bus_occupancy", job.soc.bus_occupancy);
    j.member("bytes_moved", job.soc.bytes_moved)
        .member("fw_passed", job.fw_passed)
        .member("fw_blocked", job.fw_blocked)
        .member("attack", job.attack);
    if (job.attack_ran) {
      // One convention for "the question was never posed": an explicit
      // null, mirroring the CSV's empty cells. false is a real negative.
      j.member("detected", job.detected);
      j.key("detection_latency");
      if (job.detected) {
        j.value(job.detection_latency);
      } else {
        j.null();  // never detected, not "cycle 0"
      }
      j.key("contained");
      if (job.containment_checked) {
        j.value(job.contained);
      } else {
        j.null();
      }
      j.key("victim_intact");
      if (job.victim_checked) {
        j.value(job.victim_data_intact);
      } else {
        j.null();
      }
    }
    // Populated only under --metrics; omitted otherwise so default batch
    // reports keep their historical bytes.
    if (!job.metrics.empty()) job.metrics.write_json(j.key("metrics"));
    j.end_object();
  }
  j.end_array();
  j.key("aggregate").begin_object();
  real("cycles_mean", aggregate.cycles.mean());
  real("cycles_stddev", aggregate.cycles.stddev());
  real("latency_mean", aggregate.latency.mean());
  real("latency_stddev", aggregate.latency.stddev());
  real("access_latency_mean", aggregate.access_latency.mean());
  real("access_latency_stddev", aggregate.access_latency.stddev());
  real("access_latency_max", aggregate.access_latency.max());
  j.member("access_count", aggregate.access_latency.count());
  real("latency_p50", aggregate.latency_p50);
  real("latency_p95", aggregate.latency_p95);
  real("latency_p99", aggregate.latency_p99);
  j.member("access_p50", aggregate.access_p50)
      .member("access_p95", aggregate.access_p95)
      .member("access_p99", aggregate.access_p99);
  real("bus_occupancy_mean", aggregate.bus_occupancy.mean());
  real("alerts_mean", aggregate.alerts.mean());
  j.member("alerts_total", static_cast<std::uint64_t>(aggregate.alerts.sum()))
      .member("fw_blocked_total",
             static_cast<std::uint64_t>(aggregate.blocked.sum()));
  if (aggregate.attacks_ran > 0) {
    j.member("attacks_ran", aggregate.attacks_ran)
        .member("attacks_detected", aggregate.attacks_detected);
    if (aggregate.containment_checked > 0) {
      // Denominator and numerator together: containment is only evaluated
      // for some attack kinds, so contained/ran would misread the rate.
      j.member("containment_checked", aggregate.containment_checked)
          .member("attacks_contained", aggregate.attacks_contained);
    }
    if (aggregate.attacks_detected > 0) {
      j.member("detection_p50", aggregate.detection_hist.p50())
          .member("detection_p95", aggregate.detection_hist.p95())
          .member("detection_p99", aggregate.detection_hist.p99());
    } else {
      j.key("detection_p50").null();
      j.key("detection_p95").null();
      j.key("detection_p99").null();
    }
  }
  j.end_object().end_object();
  out += '\n';
  return out;
}

std::string render_batch_table(const std::string& scenario_name,
                               const std::vector<JobResult>& jobs,
                               const BatchAggregate& aggregate) {
  util::TextTable table("scenario " + scenario_name + ": " +
                        std::to_string(jobs.size()) + " job(s)");
  table.set_header({"#", "variant", "cycles", "ok", "fail", "latency",
                    "bus%", "alerts", "blocked", "attack", "outcome"});
  for (const JobResult& job : jobs) {
    std::string outcome;
    if (!job.soc.completed) outcome = "TIMEOUT";
    if (job.attack_ran) {
      if (!outcome.empty()) outcome += ' ';
      outcome += job.detected ? "detected" : "undetected";
      if (job.contained) outcome += ",contained";
      if (job.victim_read_aborted) outcome += ",aborted";
    }
    if (outcome.empty()) outcome = "ok";
    table.add_row({std::to_string(job.index),
                   job.variant.empty() ? "-" : job.variant,
                   util::TextTable::fmt_thousands(job.soc.cycles),
                   std::to_string(job.soc.transactions_ok),
                   std::to_string(job.soc.transactions_failed),
                   util::TextTable::fmt(job.soc.avg_access_latency, 1),
                   util::TextTable::fmt(100.0 * job.soc.bus_occupancy, 1),
                   std::to_string(job.soc.alerts),
                   std::to_string(job.fw_blocked),
                   job.attack_ran ? job.attack : "-", outcome});
  }
  std::string out = table.render();
  char foot[512];
  std::snprintf(
      foot, sizeof foot,
      "\naggregate: %zu/%zu completed | cycles %.0f +/- %.0f | latency "
      "%.1f +/- %.1f cyc (p50 %.1f, p95 %.1f, p99 %.1f) | per-access "
      "p50/p95/p99 %llu/%llu/%llu cyc | alerts %.0f | blocked %.0f\n",
      aggregate.jobs_completed, aggregate.jobs_total, aggregate.cycles.mean(),
      aggregate.cycles.stddev(), aggregate.latency.mean(),
      aggregate.latency.stddev(), aggregate.latency_p50, aggregate.latency_p95,
      aggregate.latency_p99,
      static_cast<unsigned long long>(aggregate.access_p50),
      static_cast<unsigned long long>(aggregate.access_p95),
      static_cast<unsigned long long>(aggregate.access_p99),
      aggregate.alerts.sum(), aggregate.blocked.sum());
  out += foot;
  if (aggregate.attacks_ran > 0) {
    char sec[256];
    if (aggregate.attacks_detected > 0) {
      std::snprintf(
          sec, sizeof sec,
          "security: %zu/%zu detected (latency p50/p95/p99 %llu/%llu/%llu "
          "cyc over detected runs)",
          aggregate.attacks_detected, aggregate.attacks_ran,
          static_cast<unsigned long long>(aggregate.detection_hist.p50()),
          static_cast<unsigned long long>(aggregate.detection_hist.p95()),
          static_cast<unsigned long long>(aggregate.detection_hist.p99()));
    } else {
      std::snprintf(sec, sizeof sec, "security: 0/%zu detected",
                    aggregate.attacks_ran);
    }
    out += sec;
    // Containment only when some run actually posed the question: "0/0
    // contained" would read as a failure.
    if (aggregate.containment_checked > 0) {
      std::snprintf(sec, sizeof sec, ", %zu/%zu contained",
                    aggregate.attacks_contained,
                    aggregate.containment_checked);
      out += sec;
    }
    out += '\n';
  }
  return out;
}

}  // namespace secbus::scenario
