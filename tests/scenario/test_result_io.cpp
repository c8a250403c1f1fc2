// JobResult JSON round-trip: the merge path's bit-fidelity contract.
// Every field — IEEE doubles, streaming moments, histogram buckets,
// never-detected sentinels — must survive serialize -> parse -> serialize
// unchanged, because merged shard reports are promised byte-identical to
// in-process ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/report.hpp"
#include "scenario/result_io.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"

namespace secbus::scenario {
namespace {

JobResult adversarial_result() {
  JobResult r;
  r.index = 41;
  r.name = "round-trip";
  r.variant = "attack=hijack,seed=42";
  r.cpus = 7;
  r.security = soc::to_string(soc::SecurityMode::kDistributed);
  r.protection = soc::to_string(soc::ProtectionLevel::kFull);
  r.seed = 0xDEADBEEFCAFEF00DULL;  // needs exact u64 round-trip
  r.extra_rules = 17;
  r.line_bytes = 64;
  r.attack = to_string(AttackKind::kExternalReplay);
  r.topology = "mesh2x2";
  r.segments = 4;
  r.max_hops = 2;

  r.soc.cycles = 123'456'789;
  r.soc.completed = true;
  r.soc.transactions_ok = 1'000'000;
  r.soc.transactions_failed = 3;
  r.soc.alerts = 11;
  // Doubles chosen to have no short decimal representation.
  r.soc.avg_access_latency = 1.0 / 3.0;
  r.soc.bus_occupancy = 0.1 + 0.2;  // the classic 0.30000000000000004
  r.soc.bytes_moved = 1ULL << 40;
  r.soc.latency_p50 = 17;
  r.soc.latency_p95 = 230;
  r.soc.latency_p99 = 999;
  r.soc.latency_max = 20'000;

  for (int i = 0; i < 1000; ++i) r.cpu_latency.add(std::sqrt(i) * 0.7);
  r.latency_hist.add(3);
  r.latency_hist.add(3);
  r.latency_hist.add(500);
  r.latency_hist.add(99'999);  // overflow bucket, exact sum preserved

  r.fw_passed = 55;
  r.fw_blocked = 5;
  r.fw_check_cycles = 600;
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    r.violations[i] = 100 + i;
  }

  r.attack_ran = true;
  r.detected = false;
  r.attack_cycle = 4242;
  r.detection_cycle = sim::kNeverCycle;  // u64 max must survive
  r.detection_latency = 0;
  r.contained = true;
  r.containment_checked = true;
  r.victim_data_intact = false;
  r.victim_checked = true;
  r.victim_read_aborted = true;
  r.flood_completed = 400;
  r.flood_blocked = 395;

  r.manager_queue_wait = 2.0 / 7.0;
  r.sb_check_latency = 12;

  r.lcf.protected_reads = 123;
  r.lcf.protected_writes = 456;
  r.lcf.read_modify_writes = 78;
  r.lcf.cc_cycles = 9'000;
  r.lcf.ic_cycles = 21'000;
  r.lcf.tree_depth = 11;
  return r;
}

// Decodes one written document with the pull reader the merge path uses;
// on failure `error` gets the reader's field path and message.
bool decode(const std::string& text, JobResult& out, std::string* error) {
  util::JsonReader r(text);
  if (read_job_result(r, out) && r.finish()) return true;
  if (error != nullptr) *error = r.error();
  return false;
}

void expect_bit_identical(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_EQ(a.cpus, b.cpus);
  EXPECT_STREQ(a.security, b.security);
  EXPECT_STREQ(a.protection, b.protection);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.extra_rules, b.extra_rules);
  EXPECT_EQ(a.line_bytes, b.line_bytes);
  EXPECT_STREQ(a.attack, b.attack);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.max_hops, b.max_hops);

  EXPECT_EQ(a.soc.cycles, b.soc.cycles);
  EXPECT_EQ(a.soc.completed, b.soc.completed);
  EXPECT_EQ(a.soc.transactions_ok, b.soc.transactions_ok);
  EXPECT_EQ(a.soc.transactions_failed, b.soc.transactions_failed);
  EXPECT_EQ(a.soc.alerts, b.soc.alerts);
  // Bit equality, not epsilon equality: memcmp the doubles.
  EXPECT_EQ(std::memcmp(&a.soc.avg_access_latency, &b.soc.avg_access_latency,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&a.soc.bus_occupancy, &b.soc.bus_occupancy,
                        sizeof(double)),
            0);
  EXPECT_EQ(a.soc.bytes_moved, b.soc.bytes_moved);
  EXPECT_EQ(a.soc.latency_p50, b.soc.latency_p50);
  EXPECT_EQ(a.soc.latency_p95, b.soc.latency_p95);
  EXPECT_EQ(a.soc.latency_p99, b.soc.latency_p99);
  EXPECT_EQ(a.soc.latency_max, b.soc.latency_max);

  const util::RunningStat::Snapshot sa = a.cpu_latency.snapshot();
  const util::RunningStat::Snapshot sb = b.cpu_latency.snapshot();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(std::memcmp(&sa, &sb, sizeof sa), 0);

  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  EXPECT_EQ(a.latency_hist.overflow(), b.latency_hist.overflow());
  EXPECT_EQ(a.latency_hist.sum(), b.latency_hist.sum());
  EXPECT_EQ(a.latency_hist.min(), b.latency_hist.min());
  EXPECT_EQ(a.latency_hist.max(), b.latency_hist.max());
  EXPECT_EQ(a.latency_hist.p50(), b.latency_hist.p50());
  EXPECT_EQ(a.latency_hist.p99(), b.latency_hist.p99());

  EXPECT_EQ(a.fw_passed, b.fw_passed);
  EXPECT_EQ(a.fw_blocked, b.fw_blocked);
  EXPECT_EQ(a.fw_check_cycles, b.fw_check_cycles);
  EXPECT_EQ(a.violations, b.violations);

  EXPECT_EQ(a.attack_ran, b.attack_ran);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.attack_cycle, b.attack_cycle);
  EXPECT_EQ(a.detection_cycle, b.detection_cycle);
  EXPECT_EQ(a.detection_latency, b.detection_latency);
  EXPECT_EQ(a.contained, b.contained);
  EXPECT_EQ(a.containment_checked, b.containment_checked);
  EXPECT_EQ(a.victim_data_intact, b.victim_data_intact);
  EXPECT_EQ(a.victim_checked, b.victim_checked);
  EXPECT_EQ(a.victim_read_aborted, b.victim_read_aborted);
  EXPECT_EQ(a.flood_completed, b.flood_completed);
  EXPECT_EQ(a.flood_blocked, b.flood_blocked);

  EXPECT_EQ(std::memcmp(&a.manager_queue_wait, &b.manager_queue_wait,
                        sizeof(double)),
            0);
  EXPECT_EQ(a.sb_check_latency, b.sb_check_latency);

  EXPECT_EQ(a.lcf.protected_reads, b.lcf.protected_reads);
  EXPECT_EQ(a.lcf.protected_writes, b.lcf.protected_writes);
  EXPECT_EQ(a.lcf.read_modify_writes, b.lcf.read_modify_writes);
  EXPECT_EQ(a.lcf.cc_cycles, b.lcf.cc_cycles);
  EXPECT_EQ(a.lcf.ic_cycles, b.lcf.ic_cycles);
  EXPECT_EQ(a.lcf.tree_depth, b.lcf.tree_depth);
}

TEST(ResultIo, AdversarialResultRoundTripsBitExactly) {
  const JobResult original = adversarial_result();
  JobResult parsed;
  std::string error;
  ASSERT_TRUE(decode(job_result_to_json(original).dump(0), parsed, &error))
      << error;
  expect_bit_identical(original, parsed);
}

TEST(ResultIo, SerializationIsAFixedPoint) {
  // serialize(parse(serialize(x))) == serialize(x): the strongest cheap
  // probe that nothing drifts per round trip.
  const JobResult original = adversarial_result();
  const std::string once = job_result_to_json(original).dump(0);
  JobResult parsed;
  ASSERT_TRUE(decode(once, parsed, nullptr));
  EXPECT_EQ(job_result_to_json(parsed).dump(0), once);
}

TEST(ResultIo, DefaultConstructedResultRoundTrips) {
  const JobResult original;  // empty stats, "" security, "none" attack
  JobResult parsed;
  std::string error;
  ASSERT_TRUE(decode(job_result_to_json(original).dump(0), parsed, &error))
      << error;
  expect_bit_identical(original, parsed);
}

TEST(ResultIo, RealScenarioResultRoundTripsAndAggregatesIdentically) {
  ScenarioSpec spec;
  spec.name = "result-io-live";
  spec.soc = soc::tiny_test_config();
  spec.attack.kind = AttackKind::kHijack;
  spec.max_cycles = 2'000'000;
  const JobResult original = run_scenario(spec);

  JobResult parsed;
  std::string error;
  ASSERT_TRUE(decode(job_result_to_json(original).dump(0), parsed, &error))
      << error;
  expect_bit_identical(original, parsed);

  // The emission downstream of the merge must not see any difference.
  const std::vector<JobResult> a{original};
  const std::vector<JobResult> b{parsed};
  util::CsvWriter csv_a, csv_b;  // in-memory
  write_batch_csv(csv_a, a);
  write_batch_csv(csv_b, b);
  EXPECT_EQ(csv_a.buffer(), csv_b.buffer());
  EXPECT_EQ(campaign::campaign_json(campaign::CampaignReport::from("x", a)),
            campaign::campaign_json(campaign::CampaignReport::from("x", b)));
}

TEST(ResultIo, RejectsMalformedDocuments) {
  JobResult parsed;
  std::string error;
  EXPECT_FALSE(decode("3", parsed, &error));

  util::Json j = job_result_to_json(adversarial_result());
  // Corrupt one enum echo.
  j.set("protection", util::Json::string("super-secret"));
  error.clear();
  EXPECT_FALSE(decode(j.dump(0), parsed, &error));
  EXPECT_NE(error.find("protection"), std::string::npos);
}

// A bucket table rewritten on the adversarial result's document; the reader
// must refuse it with an error naming the histogram and the problem.
void expect_hist_rejected(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& buckets,
    std::uint64_t count, std::uint64_t overflow, std::uint64_t min,
    std::uint64_t max, const std::string& problem,
    std::optional<std::uint64_t> sum = std::nullopt) {
  util::Json j = job_result_to_json(adversarial_result());
  util::Json hist = *j.find("latency_hist");
  util::Json table = util::Json::array();
  for (const auto& [cycle, n] : buckets) {
    util::Json pair = util::Json::array();
    pair.push(util::Json::number(cycle));
    pair.push(util::Json::number(n));
    table.push(std::move(pair));
  }
  hist.set("count", util::Json::number(count));
  hist.set("overflow", util::Json::number(overflow));
  hist.set("buckets", std::move(table));
  hist.set("min", util::Json::number(min));
  hist.set("max", util::Json::number(max));
  if (sum) hist.set("sum", util::Json::number(*sum));
  j.set("latency_hist", std::move(hist));
  JobResult parsed;
  std::string error;
  EXPECT_FALSE(decode(j.dump(0), parsed, &error)) << problem;
  EXPECT_EQ(error.rfind("latency_hist: ", 0), 0u) << error;
  EXPECT_NE(error.find(problem), std::string::npos) << error;
}

TEST(ResultIo, RejectsHistogramTablesThatDoNotAddUp) {
  // The adversarial table: [3, 2], [500, 1] plus one overflow sample.
  expect_hist_rejected({{3, 2}, {500, 1}}, 3, 1, 3, 99'999,
                       "buckets + overflow != count");
  expect_hist_rejected({{3, 2}, {500, 1}}, 5, 1, 3, 99'999,
                       "buckets + overflow != count");
  expect_hist_rejected({}, 4, 0, 3, 99'999, "buckets + overflow != count");
  // Tables no histogram can write, where a percentile would land outside
  // [min, max] or the buckets claim more latency than the sum (100 505).
  expect_hist_rejected({{3, 2}, {500, 1}}, 4, 1, 4, 99'999,
                       "bucket below min");
  expect_hist_rejected({{3, 2}, {500, 2}}, 4, 0, 3, 499, "bucket above max");
  expect_hist_rejected({{3, 2}, {500, 1}}, 4, 1, 3, 99'999,
                       "sum below what the buckets and overflow account for",
                       std::uint64_t{506 + 16'384 - 1});
  expect_hist_rejected({{3, 2}, {16'000, 2}}, 4, 0, 3, 16'000,
                       "sum below what the buckets and overflow account for",
                       std::uint64_t{32'005});
  // Checked arithmetic: a lower bound past u64 is past any sum.
  expect_hist_rejected({{3, 2}}, 2 + (UINT64_MAX >> 2), UINT64_MAX >> 2, 3,
                       99'999,
                       "sum below what the buckets and overflow account for",
                       UINT64_MAX);
  expect_hist_rejected({{16'383, UINT64_MAX >> 4}}, UINT64_MAX >> 4, 0,
                       16'383, 16'383,
                       "sum below what the buckets and overflow account for",
                       UINT64_MAX);
}

TEST(ResultIo, RejectsRepeatedOrDescendingBucketCycles) {
  expect_hist_rejected({{3, 1}, {3, 1}, {500, 1}}, 4, 1, 3, 99'999,
                       "not strictly ascending");
  expect_hist_rejected({{500, 1}, {3, 2}}, 4, 1, 3, 99'999,
                       "not strictly ascending");
}

TEST(ResultIo, RejectsMinAboveMax) {
  expect_hist_rejected({{3, 2}, {500, 1}}, 4, 1, 99'999, 3, "min > max");
}

TEST(ResultIo, RejectsBucketCountsThatOverflow) {
  const std::uint64_t huge = UINT64_MAX - 1;
  expect_hist_rejected({{3, huge}, {500, 5}}, 4, 0, 3, 500,
                       "bucket counts overflow u64");
  expect_hist_rejected({{3, huge}}, 4, 5, 3, 99'999,
                       "buckets + overflow != count");
}

TEST(ResultIo, AcceptedTablesReserializeToTheirOwnBytes) {
  // The consistency rules exist so that whatever the reader accepts writes
  // back byte-identically; the real tables pass them.
  const std::string text = job_result_to_json(adversarial_result()).dump(0);
  JobResult parsed;
  std::string error;
  ASSERT_TRUE(decode(text, parsed, &error)) << error;
  EXPECT_EQ(job_result_to_json(parsed).dump(0), text);
}

}  // namespace
}  // namespace secbus::scenario
