// Batch-level aggregation and the per-job CSV.
//
// Summarizes a job list into the cross-job roll-up the campaign report
// emits (exact per-access percentiles over the merged per-job
// LatencyHistograms, security-outcome counts) and mirrors the per-job rows
// as CSV (util::CsvWriter) so downstream plots can regenerate the paper's
// figures from one run.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace secbus::scenario {

struct BatchAggregate {
  std::size_t jobs_total = 0;
  std::size_t jobs_completed = 0;  // finished before the cycle cap
  util::RunningStat access_latency; // every access across every job, merged
  util::RunningStat alerts;
  // Exact per-access percentiles over every access of every job (the
  // per-job LatencyHistograms merged).
  util::LatencyHistogram access_hist;
  std::uint64_t access_p50 = 0;
  std::uint64_t access_p95 = 0;
  std::uint64_t access_p99 = 0;
  // Security outcomes across the batch. Detection-latency percentiles cover
  // *detected* runs only — undetected runs have no latency, and folding a 0
  // in for them would fake instant detections.
  std::size_t attacks_ran = 0;
  std::size_t attacks_detected = 0;
  std::size_t containment_checked = 0;
  std::size_t attacks_contained = 0;
  util::LatencyHistogram detection_hist;

  [[nodiscard]] static BatchAggregate from(const std::vector<JobResult>& jobs);
};

// Per-job CSV column order.
[[nodiscard]] const std::vector<std::string>& batch_csv_columns();

// One CSV row per job, in submission order.
void write_batch_csv(util::CsvWriter& csv, const std::vector<JobResult>& jobs);

}  // namespace secbus::scenario
