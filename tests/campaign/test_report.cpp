// Campaign report: cell grouping, rate math, the undetected-runs-excluded
// rule for detection-latency percentiles, weakest-cell ranking, and the
// empty-cell convention in the CSV.
#include "campaign/report.hpp"

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace secbus::campaign {
namespace {

scenario::JobResult job(const std::string& variant, std::uint64_t seed,
                        const char* attack, bool attack_ran, bool detected,
                        sim::Cycle latency) {
  scenario::JobResult r;
  r.name = "camp";
  r.variant = variant + ",seed=" + std::to_string(seed);
  r.seed = seed;
  r.attack = attack;
  r.attack_ran = attack_ran;
  r.detected = detected;
  if (detected) r.detection_latency = latency;
  r.soc.completed = true;
  r.soc.avg_access_latency = 50.0;
  return r;
}

TEST(CampaignReport, GroupsSeedRepeatsIntoCells) {
  std::vector<scenario::JobResult> jobs;
  jobs.push_back(job("attack=hijack,protection=plaintext", 1, "hijack",
                     true, true, 60));
  jobs.push_back(job("attack=hijack,protection=plaintext", 2, "hijack",
                     true, false, 0));
  jobs.push_back(job("attack=hijack,protection=cipher-only", 1, "hijack",
                     true, true, 70));
  const CampaignReport report = CampaignReport::from("camp", jobs);
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.cells[0].key, "attack=hijack,protection=plaintext");
  EXPECT_EQ(report.cells[0].jobs, 2u);
  EXPECT_EQ(report.cells[1].jobs, 1u);
  EXPECT_DOUBLE_EQ(report.cells[0].detection_rate(), 0.5);
  EXPECT_DOUBLE_EQ(report.cells[1].detection_rate(), 1.0);
}

TEST(CampaignReport, UndetectedRunsAreExcludedFromLatencyPercentiles) {
  std::vector<scenario::JobResult> jobs;
  // 3 detected at 100 cycles, 2 undetected. If the undetected runs leaked
  // into the histogram as zeros, p50 would read 0.
  for (std::uint64_t s = 0; s < 3; ++s) {
    jobs.push_back(job("attack=spoof", s, "external-spoof", true, true, 100));
  }
  for (std::uint64_t s = 3; s < 5; ++s) {
    jobs.push_back(job("attack=spoof", s, "external-spoof", true, false, 0));
  }
  const CampaignReport report = CampaignReport::from("camp", jobs);
  ASSERT_EQ(report.cells.size(), 1u);
  const CellAggregate& cell = report.cells[0];
  EXPECT_EQ(cell.detection_hist.count(), 3u);
  EXPECT_EQ(cell.detection_hist.p50(), 100u);
  EXPECT_EQ(cell.detection_hist.p99(), 100u);
  EXPECT_DOUBLE_EQ(cell.detection_rate(), 0.6);
  // Batch-level roll-up follows the same rule.
  EXPECT_EQ(report.batch.detection_hist.count(), 3u);
}

TEST(CampaignReport, MetricsSidecarStreamsTheTreeDocumentBytes) {
  // The --metrics sidecar used to be built as a util::Json tree; the
  // streamed document must keep those bytes (fleet runs are diffed
  // against single-process runs on this file). Jobs without a registry
  // are skipped; gauges need their shortest round-trip digits.
  std::vector<scenario::JobResult> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].index = i;
  jobs[0].metrics.counter("soc.cycles", 123'456);
  jobs[0].metrics.gauge("bus.occupancy", 0.1 + 0.2);
  jobs[0].metrics.counter("a.first", 0);
  jobs[2].metrics.gauge("core.lcf.mean", 1.0 / 3.0);
  jobs[2].metrics.counter("core.lcf.max", UINT64_MAX);

  util::Json doc = util::Json::object();
  doc.set("campaign", util::Json::string("camp"));
  util::Json entries = util::Json::array();
  for (const auto& r : jobs) {
    if (r.metrics.empty()) continue;
    util::Json entry = util::Json::object();
    entry.set("index",
              util::Json::number(static_cast<std::uint64_t>(r.index)));
    entry.set("metrics", r.metrics.to_json());
    entries.push(std::move(entry));
  }
  doc.set("jobs", std::move(entries));
  EXPECT_EQ(metrics_json("camp", jobs), doc.dump());
}

TEST(CampaignReport, WeakestRankingPutsUndetectedDamageFirst) {
  std::vector<scenario::JobResult> jobs;
  // Cell A: benign (no attack) — never ranked.
  jobs.push_back(job("security=none", 1, "none", false, false, 0));
  // Cell B: detected everything, fast.
  jobs.push_back(job("attack=hijack", 1, "hijack", true, true, 50));
  // Cell C: detected nothing and the victim was corrupted.
  auto corrupted = job("attack=spoof", 1, "external-spoof", true, false, 0);
  corrupted.victim_checked = true;
  corrupted.victim_data_intact = false;
  jobs.push_back(corrupted);
  // Cell D: detected nothing but no victim check either.
  jobs.push_back(job("attack=flood", 1, "flood-in-policy", true, false, 0));

  const CampaignReport report = CampaignReport::from("camp", jobs);
  ASSERT_EQ(report.cells.size(), 4u);
  const std::vector<std::size_t> ranked = report.ranked_weakest();
  ASSERT_EQ(ranked.size(), 3u);  // benign cell excluded
  // Undetected + damaged ranks weaker than undetected alone; full detection
  // ranks last.
  EXPECT_EQ(report.cells[ranked[0]].key, "attack=spoof");
  EXPECT_EQ(report.cells[ranked[1]].key, "attack=flood");
  EXPECT_EQ(report.cells[ranked[2]].key, "attack=hijack");
}

TEST(CampaignReport, CsvEmitsEmptyCellsForUndefinedOutcomes) {
  std::vector<scenario::JobResult> jobs;
  jobs.push_back(job("security=none", 1, "none", false, false, 0));
  auto detected = job("attack=hijack", 1, "hijack", true, true, 60);
  detected.containment_checked = true;
  detected.contained = true;
  jobs.push_back(detected);
  jobs.push_back(job("attack=spoof", 1, "external-spoof", true, false, 0));

  const CampaignReport report = CampaignReport::from("camp", jobs);
  util::CsvWriter csv;  // in-memory
  write_cells_csv(csv, report);
  std::vector<std::string> lines;
  std::string buffer = csv.buffer();
  std::size_t start = 0;
  while (start < buffer.size()) {
    const std::size_t nl = buffer.find('\n', start);
    lines.push_back(buffer.substr(start, nl - start));
    start = nl == std::string::npos ? buffer.size() : nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);  // header + 3 cells

  // Benign cell: detected/detection_rate/contained/... all empty.
  EXPECT_NE(lines[1].find(",,,,"), std::string::npos) << lines[1];
  // Detected hijack: rate 1 and latency percentiles present.
  EXPECT_NE(lines[2].find(",1,1,"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("60"), std::string::npos) << lines[2];
  // Undetected spoof: rate 0 but *empty* latency percentiles (not zeros).
  EXPECT_NE(lines[3].find(",0,0,"), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find(",,,,"), std::string::npos) << lines[3];
}

TEST(CampaignReport, JsonEmitsNullsAndWeakestList) {
  std::vector<scenario::JobResult> jobs;
  jobs.push_back(job("attack=spoof", 1, "external-spoof", true, false, 0));
  jobs.push_back(job("attack=hijack", 1, "hijack", true, true, 42));
  const CampaignReport report = CampaignReport::from("camp", jobs);

  util::Json j;
  std::string error;
  ASSERT_TRUE(util::Json::parse(campaign_json(report), j, &error)) << error;
  ASSERT_NE(j.find("cells"), nullptr);
  ASSERT_EQ(j.find("cells")->items().size(), 2u);

  const util::Json& spoof = j.find("cells")->items()[0];
  EXPECT_TRUE(spoof.find("detection_latency")->is_null());
  EXPECT_DOUBLE_EQ(spoof.find("detection_rate")->as_double(), 0.0);
  const util::Json& hijack = j.find("cells")->items()[1];
  ASSERT_TRUE(hijack.find("detection_latency")->is_object());
  std::uint64_t p50 = 0;
  ASSERT_TRUE(hijack.find("detection_latency")->find("p50")->to_u64(p50));
  EXPECT_EQ(p50, 42u);

  ASSERT_NE(j.find("weakest"), nullptr);
  ASSERT_EQ(j.find("weakest")->items().size(), 2u);
  EXPECT_EQ(j.find("weakest")->items()[0].as_string(), "attack=spoof");
}

}  // namespace
}  // namespace secbus::campaign
