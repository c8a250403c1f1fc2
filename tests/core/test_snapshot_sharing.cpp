// SoCs built from one cached FormatSnapshot share its image pages, which
// their DDR stores and their lazily formatted trees both read, and each
// copies only what it writes. Builds and runs on several threads at once
// must leave the snapshot, and every other SoC, untouched; the lazy tree,
// on a cache hit as on a miss, must still catch memory tampered before a
// line's first read. The sanitizer CI leg runs this file under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bus/transaction.hpp"
#include "core/format_cache.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace secbus::core {
namespace {

class SnapshotSharing : public ::testing::Test {
 protected:
  void SetUp() override { FormatCache::instance().clear(); }
  void TearDown() override { FormatCache::instance().clear(); }
};

soc::SocConfig full_cfg() {
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.protection = soc::ProtectionLevel::kFull;
  cfg.seed = 31;
  return cfg;
}

std::vector<std::uint8_t> protected_bytes(soc::Soc& soc) {
  std::vector<std::uint8_t> out(soc.config().ddr_protected_size);
  soc.ddr().store().peek(soc.config().ddr_protected_base, out);
  return out;
}

sim::Addr line_addr(const soc::Soc& soc, std::uint64_t line) {
  return soc.config().ddr_protected_base + line * soc.config().line_bytes;
}

bus::TransStatus read_line(soc::Soc& soc, std::uint64_t line) {
  auto t = bus::make_read(0, line_addr(soc, line), bus::DataFormat::kWord,
                          static_cast<std::uint16_t>(soc.config().line_bytes / 4));
  return soc.ddr_firewall()->access(t, soc.kernel().now()).status;
}

void tamper_line(soc::Soc& soc, std::uint64_t line) {
  std::vector<std::uint8_t> stored(soc.config().line_bytes);
  soc.ddr().store().peek(line_addr(soc, line), stored);
  stored[3] ^= 0x5A;
  soc.ddr().store().poke(line_addr(soc, line), stored);
}

// The last line of the protected window.
std::uint64_t last_line(const soc::Soc& soc) {
  return soc.config().ddr_protected_size / soc.config().line_bytes - 1;
}

TEST_F(SnapshotSharing, ConcurrentBuildsFromOneSnapshotWriteOnlyTheirOwnPages) {
  soc::Soc first(full_cfg());  // the miss that publishes the snapshot
  const std::vector<std::uint8_t> pristine = protected_bytes(first);
  EXPECT_GT(first.ddr().store().shared_pages(), 0u);

  constexpr std::size_t kThreads = 8;
  std::vector<soc::SocResults> results(kThreads);
  std::vector<bus::TransStatus> probes(kThreads);
  std::vector<std::size_t> shared_left(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &results, &probes, &shared_left] {
      soc::Soc soc(full_cfg());  // a hit: shared pages, lazy tree
      results[t] = soc.run(5'000'000);
      // Odd threads also tamper with a shared page directly.
      if (t % 2 == 1) tamper_line(soc, last_line(soc));
      probes[t] = read_line(soc, last_line(soc));
      shared_left[t] = soc.ddr().store().shared_pages();
    });
  }
  for (auto& th : pool) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    EXPECT_TRUE(results[t].completed);
    EXPECT_GT(results[t].transactions_ok, 0u);
    EXPECT_EQ(results[t].transactions_failed, 0u);
    EXPECT_EQ(results[t].cycles, results[0].cycles);
    EXPECT_EQ(results[t].alerts, 0u);
    EXPECT_EQ(probes[t], t % 2 == 1 ? bus::TransStatus::kIntegrityError
                                    : bus::TransStatus::kOk);
    // The run wrote some pages (copied) and left the rest shared.
    EXPECT_GT(shared_left[t], 0u);
    EXPECT_LT(shared_left[t], first.ddr().store().shared_pages());
  }
  EXPECT_EQ(protected_bytes(first), pristine);
  soc::Soc later(full_cfg());
  EXPECT_EQ(protected_bytes(later), pristine);
  EXPECT_EQ(read_line(later, last_line(later)), bus::TransStatus::kOk);
}

// The lazy tree checks a line's first read against the snapshot image,
// never against the DDR: a line tampered with before that read differs
// from the image, so it is hashed (its leaf from the image, then the read
// data) and caught. An untouched line equals the image and hashes nothing.
// A hit builds the same lazy tree as a miss.
TEST_F(SnapshotSharing, LazyLeavesCatchTamperingBeforeTheFirstRead) {
  for (const bool hit : {false, true}) {
    SCOPED_TRACE(hit ? "cache hit" : "cache miss");
    const std::uint64_t hits = FormatCache::instance().stats().hits;
    soc::Soc soc(full_cfg());
    EXPECT_EQ(FormatCache::instance().stats().hits, hit ? hits + 1 : hits);
    EXPECT_EQ(soc.lcf()->ic().tree().hash_count(), 0u);
    tamper_line(soc, 7);
    EXPECT_EQ(read_line(soc, 7), bus::TransStatus::kIntegrityError);
    EXPECT_EQ(read_line(soc, 8), bus::TransStatus::kOk);
    EXPECT_EQ(soc.lcf()->ic().tree().hash_count(), 2u);  // line 7's two
    EXPECT_EQ(read_line(soc, 7), bus::TransStatus::kIntegrityError);
    EXPECT_EQ(soc.lcf()->ic().tree().hash_count(), 3u);  // leaf kept
  }
}

}  // namespace
}  // namespace secbus::core
