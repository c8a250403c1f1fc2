// Campaign-level aggregation: security outcomes per grid cell.
//
// The scenario batch report answers "how fast was it"; this layer answers
// the paper's actual question — "did the distributed firewalls catch the
// attack, how quickly, and did the victim's data survive" — per grid cell.
// A cell is one point of the campaign grid with the seed axis collapsed
// (same attack, topology, security, protection, ...; N seed repeats), so
// rates are estimated over seeds and detection-latency percentiles are
// exact over the cell's *detected* runs. Undetected runs never enter the
// latency histograms: "never detected" must not masquerade as "detected in
// 0 cycles" (it shows up in the rate instead).
//
// The report also ranks attack cells weakest-first (lowest detection rate,
// then most victim damage, then worst containment, then slowest p95), which
// turns a multi-thousand-job campaign into an actionable "these protection/
// topology corners fail first" summary.
#pragma once

#include <string>
#include <vector>

#include "scenario/report.hpp"
#include "scenario/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace secbus::campaign {

struct CellAggregate {
  std::string key;  // variant with the seed component stripped; "-" if none

  // Axis echo from the cell's first job (identical across the cell except
  // for the seed).
  std::string attack;
  std::string topology;
  std::string security;
  std::string protection;
  std::size_t cpus = 0;
  std::uint64_t line_bytes = 0;
  std::size_t extra_rules = 0;

  std::size_t jobs = 0;
  std::size_t completed = 0;
  std::size_t attacks_ran = 0;
  std::size_t detected = 0;
  std::size_t containment_checked = 0;
  std::size_t contained = 0;
  std::size_t victim_checked = 0;
  std::size_t victim_intact = 0;

  util::RunningStat job_latency;          // per-job mean access latency
  util::LatencyHistogram access_hist;     // every access in the cell
  util::LatencyHistogram detection_hist;  // detected runs only
  std::uint64_t alerts = 0;
  std::uint64_t fw_blocked = 0;

  // Rates are undefined (and emitted as empty/null) when their denominator
  // is zero; the helpers return 0 in that case.
  [[nodiscard]] double detection_rate() const noexcept;
  [[nodiscard]] double containment_rate() const noexcept;
  [[nodiscard]] double victim_intact_rate() const noexcept;
};

struct CampaignReport {
  std::string name;
  std::vector<CellAggregate> cells;   // grid order (first appearance)
  scenario::BatchAggregate batch;     // whole-campaign roll-up

  [[nodiscard]] static CampaignReport from(
      std::string name, const std::vector<scenario::JobResult>& jobs);

  // Indices into `cells` of every attack cell (attacks_ran > 0), weakest
  // first: detection rate ascending, then victim-intact rate ascending,
  // then containment rate ascending, then detection p95 descending.
  [[nodiscard]] std::vector<std::size_t> ranked_weakest() const;
};

// Column order shared by the cells CSV and the JSON emitter.
[[nodiscard]] const std::vector<std::string>& cell_csv_columns();

// One row per grid cell, in grid order. Undefined rates/percentiles emit
// empty cells.
void write_cells_csv(util::CsvWriter& csv, const CampaignReport& report);

// {"campaign": ..., "cells": [...], "weakest": [...], "aggregate": {...}}.
[[nodiscard]] std::string campaign_json(const CampaignReport& report);

// {"campaign": ..., "jobs": [{"index": ..., "metrics": {...}}, ...]} over
// the jobs that carry a component-metric registry: the --metrics sidecar.
[[nodiscard]] std::string metrics_json(
    const std::string& name, const std::vector<scenario::JobResult>& jobs);

// Human-readable per-cell table plus the weakest-cell ranking.
[[nodiscard]] std::string render_campaign_table(const CampaignReport& report,
                                                std::size_t weakest_n = 5);

}  // namespace secbus::campaign
