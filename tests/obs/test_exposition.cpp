// Prometheus text exposition: name sanitization, the counter/gauge TYPE
// split, deterministic ordering, and a golden file locking the exact
// bytes of the /metrics body for a representative fleet registry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/exposition.hpp"
#include "obs/registry.hpp"

namespace secbus::obs {
namespace {

TEST(PrometheusName, PrefixesAndSanitizes) {
  EXPECT_EQ(prometheus_name("fleet.worker0.net.frames_in"),
            "secbus_fleet_worker0_net_frames_in");
  EXPECT_EQ(prometheus_name("core.format_cache.hit_rate"),
            "secbus_core_format_cache_hit_rate");
  // Every character outside [A-Za-z0-9_] maps to '_'.
  EXPECT_EQ(prometheus_name("a-b/c d:e"), "secbus_a_b_c_d_e");
  EXPECT_EQ(prometheus_name(""), "secbus_");
}

TEST(PrometheusText, EmptyRegistryRendersEmpty) {
  Registry reg;
  EXPECT_EQ(prometheus_text(reg), "");
}

TEST(PrometheusText, CountersAndGaugesGetDistinctTypes) {
  Registry reg;
  reg.counter("jobs", 42);
  reg.gauge("rate", 1.5);
  EXPECT_EQ(prometheus_text(reg),
            "# TYPE secbus_jobs counter\n"
            "secbus_jobs 42\n"
            "# TYPE secbus_rate gauge\n"
            "secbus_rate 1.5\n");
}

TEST(PrometheusText, OrderIsByRegistryNameNotInsertion) {
  Registry forward;
  forward.counter("a.first", 1);
  forward.counter("b.second", 2);
  Registry backward;
  backward.counter("b.second", 2);
  backward.counter("a.first", 1);
  EXPECT_EQ(prometheus_text(forward), prometheus_text(backward));
  EXPECT_LT(prometheus_text(forward).find("secbus_a_first"),
            prometheus_text(forward).find("secbus_b_second"));
}

TEST(PrometheusText, CountersAreExactAndGaugesRoundTrip) {
  Registry reg;
  reg.counter("big", 18446744073709551615ull);  // UINT64_MAX survives
  reg.gauge("third", 1.0 / 3.0);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("secbus_big 18446744073709551615\n"),
            std::string::npos);
  // Gauges print with util::Json's shortest-round-trip formatting.
  EXPECT_NE(text.find("secbus_third " +
                      util::Json::number(1.0 / 3.0).dump(0) + "\n"),
            std::string::npos);
}

// A representative fleet exposition — worker snapshots merged under
// fleet.worker<i>.* plus summed fleet.total.* — pinned byte-for-byte.
// Regenerate deliberately with SECBUS_UPDATE_GOLDEN=1 after a writer
// change, and eyeball the diff: the file is the /metrics format contract.
Registry golden_registry() {
  Registry reg;
  reg.counter("fleet.jobs", 30);
  reg.counter("fleet.shards", 3);
  reg.counter("fleet.shards.done", 1);
  reg.gauge("fleet.shards.leased", 2);
  reg.gauge("fleet.workers", 2);
  reg.counter("fleet.server.net.frames_in", 17);
  reg.counter("fleet.server.net.bytes_in", 2048);
  reg.counter("fleet.worker0.worker.jobs_done", 10);
  reg.gauge("fleet.worker0.worker.jobs_per_sec", 12.5);
  reg.counter("fleet.worker0.net.frames_out", 9);
  reg.counter("fleet.worker0.crypto.hw_datapaths", 3);
  reg.counter("fleet.worker1.worker.jobs_done", 4);
  reg.gauge("fleet.worker1.worker.jobs_per_sec", 8.25);
  reg.counter("fleet.worker1.net.frames_out", 5);
  reg.counter("fleet.worker1.crypto.hw_datapaths", 3);
  reg.counter("fleet.total.worker.jobs_done", 14);
  reg.gauge("fleet.total.worker.jobs_per_sec", 20.75);
  reg.counter("fleet.total.net.frames_out", 14);
  return reg;
}

TEST(PrometheusText, MatchesGoldenFile) {
  const std::string path = std::string(SECBUS_REPO_DIR) +
                           "/tests/data/metrics_exposition_golden.txt";
  const std::string text = prometheus_text(golden_registry());

  if (std::getenv("SECBUS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << text;
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << path << " missing; regenerate with SECBUS_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str());
}

}  // namespace
}  // namespace secbus::obs
