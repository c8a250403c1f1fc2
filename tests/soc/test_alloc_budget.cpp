// Pins the heap allocations a running SoC makes. Once a job is warm, a
// simulated transaction must not touch the allocator: channel and booking
// queues are grow-only rings, payloads up to 64 bytes live inline, and the
// traffic generators (processors, the flood attacker) build their writes in
// place. What remains grows with the simulated address footprint and
// latency spread, not with the number of transactions:
//   * latency histogram blocks, allocated the first time a latency lands
//     in a new block (util::LatencyHistogram);
//   * backing-store pages, allocated on the first write of each page, and
//     the page table's chunk of slots, on the first write into it
//     (mem::BackingStore);
//   * ring growth up to a queue's peak depth.
// So doubling a job's transactions may add only a few allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "attack/flood_master.hpp"
#include "core/security_policy.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace secbus {
namespace {

// operator new calls made inside Soc::run only; building the SoC (and its
// protected-region format) is setup, not per-transaction cost.
std::uint64_t counted_run(soc::Soc& sys) {
  g_allocations.store(0);
  g_counting.store(true);
  const soc::SocResults r = sys.run(30'000'000);
  g_counting.store(false);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.transactions_ok + r.transactions_failed,
            sys.config().processors * sys.config().transactions_per_cpu);
  return g_allocations.load();
}

std::uint64_t run_allocations(const soc::SocConfig& cfg) {
  soc::Soc sys(cfg);
  return counted_run(sys);
}

// The flood-in-policy attack of attack_grid (8-beat writes cycling over a
// 4 KiB window of the shared scratchpad) beside a short section5 job.
std::uint64_t flood_allocations(std::uint64_t flood_writes) {
  soc::SocConfig cfg = soc::section5_config();
  cfg.transactions_per_cpu = 100;
  cfg.seed = scenario::derive_seed(1, 2);
  soc::Soc sys(cfg);
  const soc::AddressPlan::Window scratch = sys.plan().bram_scratch;
  attack::FloodMaster::Config fc;
  fc.target = scratch.base + scratch.size / 2;
  fc.region = 4096;
  fc.burst_beats = 8;
  fc.total_writes = flood_writes;
  attack::FloodMaster flood("flooder", 250, fc);
  core::PolicyBuilder pb(0x600);
  pb.allow(scratch.base, scratch.size, core::RwAccess::kReadWrite,
           core::FormatMask::k32, "flood-window");
  sys.attach_custom_master(flood, pb.build());
  const std::uint64_t allocations = counted_run(sys);
  EXPECT_EQ(flood.completed(), flood_writes);
  return allocations;
}

// Job 1 of the ciphered_datapath benchmark workload (seed 1): distributed
// firewalls, full protection, write-heavy, 60% external traffic.
soc::SocConfig ciphered_job(std::uint64_t transactions_per_cpu) {
  soc::SocConfig cfg = soc::section5_config();
  cfg.security = soc::SecurityMode::kDistributed;
  cfg.processors = 3;
  cfg.external_fraction = 0.6;
  cfg.ddr_protected_size = 64 * 1024;
  cfg.protection = soc::ProtectionLevel::kFull;
  cfg.write_fraction = 0.7;
  cfg.transactions_per_cpu = transactions_per_cpu;
  cfg.seed = scenario::derive_seed(1, 1);
  return cfg;
}

// Job 0 of the fabric_star32 benchmark workload (seed 1), as pinned for
// host work in soc_test_wake_wiring.
soc::SocConfig star32_job(std::uint64_t transactions_per_cpu) {
  soc::SocConfig cfg = soc::star32_config();
  cfg.transactions_per_cpu = transactions_per_cpu;
  cfg.seed = scenario::derive_seed(1, 0);
  return cfg;
}

TEST(AllocBudget, CipheredJobAllocatesPerFootprintNotPerTransaction) {
  const std::uint64_t base = run_allocations(ciphered_job(1500));
  const std::uint64_t doubled = run_allocations(ciphered_job(3000));
  EXPECT_EQ(base, 324u);
  EXPECT_EQ(doubled, 338u);
  EXPECT_LE(doubled - base, 30u);
}

TEST(AllocBudget, Star32JobAllocatesPerFootprintNotPerTransaction) {
  const std::uint64_t base = run_allocations(star32_job(30));
  const std::uint64_t doubled = run_allocations(star32_job(60));
  EXPECT_EQ(base, 501u);
  EXPECT_EQ(doubled, 555u);
  EXPECT_LE(doubled - base, 110u);
}

// A flood write builds its payload inline and its response is read in
// place, so doubling the writes allocates nothing more.
TEST(AllocBudget, FloodAllocatesPerFootprintNotPerWrite) {
  const std::uint64_t base = flood_allocations(400);
  const std::uint64_t doubled = flood_allocations(800);
  EXPECT_EQ(base, 116u);
  EXPECT_EQ(doubled, 116u);
  EXPECT_LE(doubled - base, 10u);
}

}  // namespace
}  // namespace secbus
