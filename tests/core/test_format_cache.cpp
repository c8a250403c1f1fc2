// SoC-setup memoization (core::FormatCache): the cached format must be
// indistinguishable — stored bytes, tree root, versions, runtime results —
// from the computing path, across protection modes, seeds and threads.
// clear() before a build is how a test takes the miss path; the sanitizer
// CI legs run this file under ThreadSanitizer too.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "core/format_cache.hpp"
#include "scenario/result_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace secbus::core {
namespace {

// The cache is process-global; every test starts it empty and leaves it
// that way for whoever runs next.
class FormatCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { FormatCache::instance().clear(); }
  void TearDown() override { FormatCache::instance().clear(); }

  static std::uint64_t hits() { return FormatCache::instance().stats().hits; }
  static std::uint64_t misses() {
    return FormatCache::instance().stats().misses;
  }
};

soc::SocConfig protected_cfg(std::uint64_t seed,
                             soc::ProtectionLevel level) {
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.protection = level;
  cfg.seed = seed;
  cfg.transactions_per_cpu = 30;
  return cfg;
}

std::vector<std::uint8_t> protected_bytes(soc::Soc& soc) {
  const soc::SocConfig& cfg = soc.config();
  std::vector<std::uint8_t> bytes(cfg.ddr_protected_size);
  soc.ddr().store().read(cfg.ddr_protected_base,
                         std::span<std::uint8_t>(bytes.data(), bytes.size()));
  return bytes;
}

TEST_F(FormatCacheTest, SecondConstructionHitsAndMatchesBitForBit) {
  const std::uint64_t h0 = hits();
  soc::Soc cold(protected_cfg(42, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h0);  // first build computes

  soc::Soc warm(protected_cfg(42, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h0 + 1);  // second build restores

  ASSERT_NE(cold.lcf(), nullptr);
  ASSERT_NE(warm.lcf(), nullptr);
  EXPECT_EQ(cold.lcf()->ic().tree().root(), warm.lcf()->ic().tree().root());
  EXPECT_EQ(cold.lcf()->ic().version_of(cold.config().ddr_protected_base),
            warm.lcf()->ic().version_of(warm.config().ddr_protected_base));
  EXPECT_EQ(protected_bytes(cold), protected_bytes(warm));
}

std::vector<scenario::ScenarioSpec> example_campaign(const std::string& file,
                                                     std::string* name) {
  campaign::CampaignSpec spec;
  std::string error;
  EXPECT_TRUE(campaign::load_campaign_file(
      std::string(SECBUS_REPO_DIR) + "/examples/campaigns/" + file, spec,
      &error))
      << error;
  if (name != nullptr) *name = spec.name;
  return campaign::expand_campaign(spec);
}

std::string job_result_bytes(const scenario::JobResult& r) {
  std::string text;
  util::JsonWriter w(text);
  scenario::write_job_result(w, r);
  return text;
}

std::string cells_csv(const campaign::CampaignReport& report) {
  util::CsvWriter csv;  // in memory
  campaign::write_cells_csv(csv, report);
  return csv.buffer();
}

// The whole ci_smoke campaign with metrics collected, run on 4 threads over
// a cache that keeps its entries, against every job run alone right after
// clear() (so every distributed job formats on a miss): every job result,
// the cells CSV and the campaign JSON must match byte for byte.
TEST_F(FormatCacheTest, CachedRunIsBitIdenticalToUncachedRun) {
  std::string name;
  const std::vector<scenario::ScenarioSpec> specs =
      example_campaign("ci_smoke.json", &name);
  ASSERT_FALSE(specs.empty());
  scenario::BatchOptions options;
  options.hooks.collect_metrics = true;

  options.threads = 4;
  const std::vector<scenario::JobResult> warm =
      scenario::run_batch(specs, options);
  EXPECT_GT(hits(), 0u);

  options.threads = 1;
  std::vector<scenario::JobResult> cold(specs.size());
  std::uint64_t cold_misses = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    FormatCache::instance().clear();
    options.indices = std::vector<std::size_t>{i};
    cold[i] = std::move(scenario::run_batch(specs, options)[i]);
    EXPECT_EQ(hits(), 0u) << specs[i].variant;
    cold_misses += misses();
  }
  EXPECT_GT(cold_misses, 0u);

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_FALSE(warm[i].metrics.empty()) << specs[i].variant;
    EXPECT_EQ(job_result_bytes(warm[i]), job_result_bytes(cold[i]))
        << specs[i].variant;
  }
  const campaign::CampaignReport warm_report =
      campaign::CampaignReport::from(name, warm);
  const campaign::CampaignReport cold_report =
      campaign::CampaignReport::from(name, cold);
  EXPECT_EQ(cells_csv(warm_report), cells_csv(cold_report));
  EXPECT_EQ(campaign::campaign_json(warm_report),
            campaign::campaign_json(cold_report));
}

// attack_grid's 576 jobs hold 288 distributed-mode builds over 7 format
// keys. A cold single-threaded pass misses once per key and hits the other
// 281 builds; a second pass hits all 288.
TEST_F(FormatCacheTest, AttackGridPassesServeEveryRepeatedFormat) {
  const std::vector<scenario::ScenarioSpec> specs =
      example_campaign("attack_grid.json", nullptr);
  ASSERT_EQ(specs.size(), 576u);

  (void)scenario::run_batch(specs);
  FormatCache::Stats s = FormatCache::instance().stats();
  EXPECT_EQ(s.misses, 7u);
  EXPECT_EQ(s.hits, 281u);
  EXPECT_EQ(s.insertions, 7u);
  EXPECT_EQ(s.evictions, 0u);

  (void)scenario::run_batch(specs);
  s = FormatCache::instance().stats();
  EXPECT_EQ(s.misses, 7u);
  EXPECT_EQ(s.hits, 281u + 288u);
  EXPECT_EQ(s.insertions, 7u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST_F(FormatCacheTest, CipheredEntriesAreKeyedBySeed) {
  soc::Soc a(protected_cfg(1, soc::ProtectionLevel::kFull));
  const std::uint64_t h = hits();
  soc::Soc b(protected_cfg(2, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h);  // different seed -> different key -> miss
  EXPECT_NE(a.lcf()->ic().tree().root(), b.lcf()->ic().tree().root());
}

TEST_F(FormatCacheTest, CipherOnlyAndFullShareOneEntry) {
  // The stored image and tree depend on CM + key, not on IM: cipher-only
  // and cipher+integrity jobs of the same seed share a format.
  soc::Soc full(protected_cfg(5, soc::ProtectionLevel::kFull));
  const std::uint64_t h = hits();
  soc::Soc cipher(protected_cfg(5, soc::ProtectionLevel::kCipherOnly));
  EXPECT_EQ(hits(), h + 1);
  EXPECT_EQ(protected_bytes(full), protected_bytes(cipher));
}

TEST_F(FormatCacheTest, PlaintextFormatsShareAcrossSeeds) {
  soc::Soc a(protected_cfg(1, soc::ProtectionLevel::kPlaintext));
  const std::uint64_t h = hits();
  soc::Soc b(protected_cfg(2, soc::ProtectionLevel::kPlaintext));
  EXPECT_EQ(hits(), h + 1);  // key-independent: zero image either way
  EXPECT_EQ(a.lcf()->ic().tree().root(), b.lcf()->ic().tree().root());
}

TEST_F(FormatCacheTest, EvictionKeepsTheCacheBounded) {
  FormatCache& cache = FormatCache::instance();
  FormatKey key;
  key.protected_size = 4096;
  key.line_bytes = 32;
  key.ciphered = true;
  for (std::uint64_t i = 0; i < FormatCache::kMaxEntries + 8; ++i) {
    key.protected_base = i * 0x10000;
    cache.insert(key, std::make_shared<FormatSnapshot>());
  }
  EXPECT_EQ(cache.stats().evictions, 8u);
  // FIFO: the oldest keys fell out, the newest survive.
  key.protected_base = 0;
  EXPECT_EQ(cache.find(key), nullptr);
  key.protected_base = (FormatCache::kMaxEntries + 7) * 0x10000;
  EXPECT_NE(cache.find(key), nullptr);
}

TEST_F(FormatCacheTest, ConcurrentConstructionIsSafeAndConverges) {
  // Batch-runner shape: many threads building identical SoCs; all formats
  // must agree and the cache must end with exactly one entry.
  std::vector<std::thread> pool;
  std::vector<crypto::Sha256Digest> roots(8);
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([t, &roots] {
      soc::Soc soc(protected_cfg(123, soc::ProtectionLevel::kFull));
      roots[static_cast<std::size_t>(t)] = soc.lcf()->ic().tree().root();
    });
  }
  for (std::thread& t : pool) t.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(roots[0], roots[t]);
  EXPECT_EQ(FormatCache::instance().stats().insertions, 1u);
}

}  // namespace
}  // namespace secbus::core
