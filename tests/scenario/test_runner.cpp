// Batch-runner determinism: the parallel thread pool must be an execution
// detail, invisible in the results. N-thread and 1-thread batches over the
// same job list produce bit-identical per-job SocResults and security
// metrics, in submission order.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "campaign/report.hpp"
#include "scenario/sweep.hpp"
#include "soc/presets.hpp"
#include "util/csv.hpp"

namespace secbus::scenario {
namespace {

// A cheap but non-trivial job list: tiny SoC crossed over protection levels
// and seeds, with one staged attack variant in the mix.
std::vector<ScenarioSpec> make_jobs() {
  ScenarioSpec base;
  base.name = "runner-test";
  base.soc = soc::tiny_test_config();
  base.soc.transactions_per_cpu = 30;
  base.max_cycles = 2'000'000;

  SweepAxes axes;
  axes.protection = {soc::ProtectionLevel::kPlaintext,
                     soc::ProtectionLevel::kFull};
  axes.seeds = {1, 7, 42};
  std::vector<ScenarioSpec> jobs = expand(base, axes);

  ScenarioSpec attack = base;
  attack.variant = "attack=hijack";
  attack.attack.kind = AttackKind::kHijack;
  jobs.push_back(attack);
  return jobs;
}

void expect_identical(const JobResult& a, const JobResult& b,
                      std::size_t index) {
  EXPECT_EQ(a.index, b.index) << index;
  EXPECT_EQ(a.variant, b.variant) << index;
  // SocResults, field by field, bit-identical (doubles included: the same
  // deterministic computation must produce the same bits).
  EXPECT_EQ(a.soc.cycles, b.soc.cycles) << index;
  EXPECT_EQ(a.soc.completed, b.soc.completed) << index;
  EXPECT_EQ(a.soc.transactions_ok, b.soc.transactions_ok) << index;
  EXPECT_EQ(a.soc.transactions_failed, b.soc.transactions_failed) << index;
  EXPECT_EQ(a.soc.alerts, b.soc.alerts) << index;
  EXPECT_EQ(a.soc.avg_access_latency, b.soc.avg_access_latency) << index;
  EXPECT_EQ(a.soc.bus_occupancy, b.soc.bus_occupancy) << index;
  EXPECT_EQ(a.soc.bytes_moved, b.soc.bytes_moved) << index;
  EXPECT_EQ(a.fw_passed, b.fw_passed) << index;
  EXPECT_EQ(a.fw_blocked, b.fw_blocked) << index;
  EXPECT_EQ(a.fw_check_cycles, b.fw_check_cycles) << index;
  EXPECT_EQ(a.violations, b.violations) << index;
  EXPECT_EQ(a.detected, b.detected) << index;
  EXPECT_EQ(a.detection_cycle, b.detection_cycle) << index;
  EXPECT_EQ(a.contained, b.contained) << index;
}

TEST(Runner, ParallelResultsBitIdenticalToSerial) {
  const std::vector<ScenarioSpec> jobs = make_jobs();

  BatchOptions serial;
  serial.threads = 1;
  const auto expected = run_batch(jobs, serial);
  ASSERT_EQ(expected.size(), jobs.size());

  for (const unsigned threads : {2u, 4u, 8u}) {
    BatchOptions parallel;
    parallel.threads = threads;
    const auto got = run_batch(jobs, parallel);
    ASSERT_EQ(got.size(), expected.size()) << threads << " threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(expected[i], got[i], i);
    }
  }
}

TEST(Runner, HardwareConcurrencyAlsoIdentical) {
  const std::vector<ScenarioSpec> jobs = make_jobs();
  BatchOptions serial;
  serial.threads = 1;
  BatchOptions automatic;
  automatic.threads = 0;  // hardware_concurrency
  const auto expected = run_batch(jobs, serial);
  const auto got = run_batch(jobs, automatic);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(expected[i], got[i], i);
  }
}

TEST(Runner, ResultsArriveInSubmissionOrder) {
  const std::vector<ScenarioSpec> jobs = make_jobs();
  BatchOptions options;
  options.threads = 4;
  const auto results = run_batch(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].variant, jobs[i].variant);
  }
}

TEST(Runner, ProgressCallbackFiresOncePerJob) {
  const std::vector<ScenarioSpec> jobs = make_jobs();
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> max_done{0};
  BatchOptions options;
  options.threads = 4;
  options.on_job_done = [&](const JobResult&, std::size_t done,
                            std::size_t total) {
    ++calls;
    // Callbacks run concurrently (the runner no longer serializes them), so
    // the max is tracked with a CAS loop, not check-then-act.
    std::size_t seen = max_done.load();
    while (done > seen && !max_done.compare_exchange_weak(seen, done)) {
    }
    EXPECT_EQ(total, jobs.size());
  };
  (void)run_batch(jobs, options);
  EXPECT_EQ(calls.load(), jobs.size());
  EXPECT_EQ(max_done.load(), jobs.size());
}

TEST(Runner, EmptyBatchIsEmpty) {
  EXPECT_TRUE(run_batch({}, {}).empty());
}

TEST(Runner, AggregateAndEmissionAreThreadCountInvariant) {
  const std::vector<ScenarioSpec> jobs = make_jobs();
  BatchOptions serial;
  serial.threads = 1;
  BatchOptions parallel;
  parallel.threads = 4;
  const auto a = run_batch(jobs, serial);
  const auto b = run_batch(jobs, parallel);

  util::CsvWriter csv_a, csv_b;  // in-memory
  write_batch_csv(csv_a, a);
  write_batch_csv(csv_b, b);
  EXPECT_EQ(csv_a.buffer(), csv_b.buffer());

  EXPECT_EQ(campaign::campaign_json(campaign::CampaignReport::from("t", a)),
            campaign::campaign_json(campaign::CampaignReport::from("t", b)));
}

}  // namespace
}  // namespace secbus::scenario
