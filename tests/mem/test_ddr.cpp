#include "mem/ddr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace secbus::mem {
namespace {

DdrMemory::Config base_config() {
  DdrMemory::Config cfg;
  cfg.base = 0x8000'0000;
  cfg.size = 1 << 20;
  cfg.banks = 4;
  cfg.row_bytes = 1024;
  cfg.t_cas = 5;
  cfg.t_rcd = 5;
  cfg.t_rp = 5;
  return cfg;
}

TEST(Ddr, WriteReadRoundTrip) {
  DdrMemory ddr("ddr", base_config());
  auto w = bus::make_write(0, 0x8000'0100, {9, 9, 8, 8});
  EXPECT_EQ(ddr.access(w, 0).status, bus::TransStatus::kOk);
  auto r = bus::make_read(0, 0x8000'0100);
  EXPECT_EQ(ddr.access(r, 1).status, bus::TransStatus::kOk);
  EXPECT_EQ(r.data, (std::vector<std::uint8_t>{9, 9, 8, 8}));
}

TEST(Ddr, FirstAccessIsRowMiss) {
  DdrMemory ddr("ddr", base_config());
  auto r = bus::make_read(0, 0x8000'0000);
  // Bank idle (no open row): t_rcd + t_cas.
  EXPECT_EQ(ddr.access(r, 0).latency, 10u);
  EXPECT_EQ(ddr.stats().row_misses, 1u);
}

TEST(Ddr, RowHitAfterFirstAccess) {
  DdrMemory ddr("ddr", base_config());
  auto r1 = bus::make_read(0, 0x8000'0000);
  (void)ddr.access(r1, 0);
  auto r2 = bus::make_read(0, 0x8000'0040);  // same 1KiB row
  EXPECT_EQ(ddr.access(r2, 1).latency, 5u);  // t_cas only
  EXPECT_EQ(ddr.stats().row_hits, 1u);
}

TEST(Ddr, RowConflictPaysPrecharge) {
  DdrMemory ddr("ddr", base_config());
  auto r1 = bus::make_read(0, 0x8000'0000);  // bank 0, row 0
  (void)ddr.access(r1, 0);
  // Same bank, different row: rows interleave across 4 banks, so row at
  // +4*row_bytes lands in bank 0 again.
  auto r2 = bus::make_read(0, 0x8000'0000 + 4 * 1024);
  EXPECT_EQ(ddr.access(r2, 1).latency, 15u);  // t_rp + t_rcd + t_cas
  EXPECT_EQ(ddr.stats().row_misses, 2u);
}

TEST(Ddr, BanksTrackRowsIndependently) {
  DdrMemory ddr("ddr", base_config());
  auto r1 = bus::make_read(0, 0x8000'0000);          // bank 0
  auto r2 = bus::make_read(0, 0x8000'0000 + 1024);   // bank 1
  (void)ddr.access(r1, 0);
  (void)ddr.access(r2, 1);
  // Re-access bank 0's open row: still a hit despite bank 1 activity.
  auto r3 = bus::make_read(0, 0x8000'0010);
  EXPECT_EQ(ddr.access(r3, 2).latency, 5u);
  EXPECT_DOUBLE_EQ(ddr.stats().hit_rate(), 1.0 / 3.0);
}

TEST(Ddr, OutOfRangeRejected) {
  DdrMemory ddr("ddr", base_config());
  auto low = bus::make_read(0, 0x7FFF'FFFC);
  EXPECT_EQ(ddr.access(low, 0).status, bus::TransStatus::kSlaveError);
  auto high = bus::make_read(0, 0x8010'0000);
  EXPECT_EQ(ddr.access(high, 0).status, bus::TransStatus::kSlaveError);
}

TEST(Ddr, RefreshPenaltyOncePerEpoch) {
  DdrMemory::Config cfg = base_config();
  cfg.refresh_interval = 100;
  cfg.refresh_penalty = 11;
  DdrMemory ddr("ddr", cfg);
  auto r1 = bus::make_read(0, 0x8000'0000);
  // now=150 -> epoch 1 != initial epoch 0: refresh penalty applies.
  EXPECT_EQ(ddr.access(r1, 150).latency, 10u + 11u);
  auto r2 = bus::make_read(0, 0x8000'0010);
  // Same epoch: no second penalty.
  EXPECT_EQ(ddr.access(r2, 160).latency, 5u);
  EXPECT_EQ(ddr.stats().refresh_stalls, 1u);
}

TEST(Ddr, StoreTamperableFromOutside) {
  // The attack surface: direct poke bypasses the bus model entirely.
  DdrMemory ddr("ddr", base_config());
  auto w = bus::make_write(0, 0x8000'0200, {1, 2, 3, 4});
  (void)ddr.access(w, 0);
  const std::vector<std::uint8_t> tampered{0xEE, 0xEE, 0xEE, 0xEE};
  ddr.store().poke(0x8000'0200, {tampered.data(), tampered.size()});
  auto r = bus::make_read(0, 0x8000'0200);
  (void)ddr.access(r, 1);
  EXPECT_EQ(r.data, tampered);
}

TEST(Ddr, ResetTimingClearsRowStateAndStats) {
  DdrMemory ddr("ddr", base_config());
  auto r1 = bus::make_read(0, 0x8000'0000);
  (void)ddr.access(r1, 0);
  ddr.reset_timing_state();
  EXPECT_EQ(ddr.stats().reads, 0u);
  auto r2 = bus::make_read(0, 0x8000'0000);
  EXPECT_EQ(ddr.access(r2, 0).latency, 10u);  // row miss again
}

// Differential test of the line port: twin devices get the same random
// line reads and writes at the same random cycles, one as word-burst
// transactions through access(), the other through read_line/write_line.
// Every op must cost the same latency and read the same bytes; the final
// Stats and stored bytes must match. Refresh is on so its stalls count too.
TEST(Ddr, LinePortMatchesTransactionAccess) {
  for (const std::uint64_t line : {16u, 32u, 64u, 128u}) {
    SCOPED_TRACE(::testing::Message() << "line " << line);
    DdrMemory::Config cfg = base_config();
    cfg.refresh_interval = 500;
    DdrMemory by_access("ddr", cfg);
    DdrMemory by_port("ddr", cfg);
    util::Xoshiro256 rng(line * 7919);
    sim::Cycle now = 0;
    std::vector<std::uint8_t> data(line);
    std::vector<std::uint8_t> out(line);
    for (int op = 0; op < 2000; ++op) {
      now += rng.below(40);
      // Lines cluster in the first 64 KiB so rows hit as well as miss.
      const std::uint64_t span = rng.chance(0.8) ? 64 * 1024 : cfg.size;
      const sim::Addr addr = cfg.base + rng.below(span / line) * line;
      const auto beats = static_cast<std::uint16_t>(line / 4);
      if (rng.chance(0.5)) {
        rng.fill(data);
        auto w = bus::make_write(
            0, addr, bus::Payload(std::span<const std::uint8_t>(data)));
        const bus::AccessResult r = by_access.access(w, now);
        ASSERT_EQ(r.status, bus::TransStatus::kOk);
        ASSERT_EQ(by_port.write_line(addr, data, now), r.latency);
      } else {
        auto rd = bus::make_read(0, addr, bus::DataFormat::kWord, beats);
        const bus::AccessResult r = by_access.access(rd, now);
        ASSERT_EQ(r.status, bus::TransStatus::kOk);
        ASSERT_EQ(by_port.read_line(addr, out, now), r.latency);
        ASSERT_EQ(rd.data, out);
      }
    }
    const DdrMemory::Stats& a = by_access.stats();
    const DdrMemory::Stats& b = by_port.stats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.row_hits, b.row_hits);
    EXPECT_EQ(a.row_misses, b.row_misses);
    EXPECT_EQ(a.refresh_stalls, b.refresh_stalls);
    EXPECT_GT(a.row_hits, 0u);
    EXPECT_GT(a.refresh_stalls, 0u);
    std::vector<std::uint8_t> image_a(cfg.size);
    std::vector<std::uint8_t> image_b(cfg.size);
    by_access.store().read(cfg.base, image_a);
    by_port.store().read(cfg.base, image_b);
    EXPECT_EQ(image_a, image_b);
    EXPECT_EQ(by_access.store().allocated_pages(),
              by_port.store().allocated_pages());
  }
}

}  // namespace
}  // namespace secbus::mem
