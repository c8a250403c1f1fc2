// SoC setup hashes nothing: no zero tree at construction, and a format,
// FormatCache hit or miss, only makes the tree lazy over the snapshot
// image. A job then hashes only lines written, or read after a write: a
// read of a line as formatted is checked by comparison. The per-instance
// HashTree hash counter measures it; the recorded digests pin that the
// lazy tree changes no result.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ciphering_firewall.hpp"
#include "core/format_cache.hpp"
#include "core/local_firewall.hpp"
#include "crypto/hash_tree.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/hexdump.hpp"

namespace secbus::core {
namespace {

std::string hex(const crypto::Sha256Digest& digest) {
  return util::to_hex({digest.data(), digest.size()});
}

// --- standalone trees ---------------------------------------------------

constexpr std::size_t kLeaves = 16;
constexpr std::size_t kBlock = 32;
constexpr std::uint64_t kBase = 0x8000'0000;

crypto::HashTree fresh_tree() {
  return crypto::HashTree(crypto::HashTree::Config{kLeaves, kBlock, kBase});
}

bool verifies_zero_blocks(const crypto::HashTree& tree) {
  const std::vector<std::uint8_t> zeros(kBlock, 0);
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    if (!tree.verify(leaf, zeros, 0).ok) return false;
  }
  return true;
}

TEST(SetupCost, TreeConstructionHashesNothing) {
  const crypto::HashTree tree = fresh_tree();
  EXPECT_EQ(tree.hash_count(), 0u);
}

TEST(SetupCost, CopiedAndMovedUnformattedTreesVerifyZeroBlocks) {
  const crypto::HashTree original = fresh_tree();
  const crypto::HashTree copy = original;
  crypto::HashTree source = fresh_tree();
  const crypto::HashTree moved = std::move(source);
  EXPECT_TRUE(verifies_zero_blocks(copy));
  EXPECT_TRUE(verifies_zero_blocks(moved));
  EXPECT_TRUE(verifies_zero_blocks(original));
  // The zero tree is built on first read: 16 leaves + 15 parents, then one
  // leaf per verify (an untampered tree needs no parent recomputed; the
  // modeled OpCost still charges all four).
  EXPECT_EQ(copy.hash_count(), 2 * kLeaves - 1 + kLeaves);
}

// Digests of the eagerly built zero tree, recorded before construction
// stopped hashing.
TEST(SetupCost, NeverFormattedTreeReadsTheZeroTree) {
  const crypto::HashTree tree = fresh_tree();
  EXPECT_EQ(hex(tree.root()),
            "f9a2c78f24079f8093253086bc1e642328414042134493ad54279ebe86d7c2c7");
  const crypto::HashTree peeked = fresh_tree();
  EXPECT_EQ(hex(peeked.peek_node(1, 3)),
            "69d6e85a5a0fbabee62a7dfa4e2c4a15ba409c65b2c337e452594a332edf1198");
  EXPECT_EQ(hex(peeked.peek_node(0, 0)),
            "c97476b1dd1d2824785943b0a6cc97f1fd75605c0857c09e712dcb80f94d00b3");

  // A poke into a never-read tree lands on the zero tree, not on an empty
  // heap: the rest of the path still holds zero-tree nodes.
  crypto::HashTree poked = fresh_tree();
  crypto::Sha256Digest marker{};
  marker[31] = 0xAB;
  poked.poke_node(1, 3, marker);
  EXPECT_EQ(poked.peek_node(1, 3), marker);
  EXPECT_EQ(hex(poked.peek_node(0, 0)),
            "c97476b1dd1d2824785943b0a6cc97f1fd75605c0857c09e712dcb80f94d00b3");
  const std::vector<std::uint8_t> zeros(kBlock, 0);
  EXPECT_TRUE(poked.verify(0, zeros, 0).ok);    // leaves 0-1: untouched path
  EXPECT_FALSE(poked.verify(6, zeros, 0).ok);   // leaves 6-7: under the poke
}

TEST(SetupCost, NeverFormattedIntegrityCoreReadsTheZeroTree) {
  IntegrityCore::Config cfg;
  cfg.protected_base = kBase;
  cfg.protected_size = 8 * 1024;
  const IntegrityCore ic(cfg);
  EXPECT_EQ(ic.tree().hash_count(), 0u);
  EXPECT_EQ(hex(ic.tree().root()),
            "df980194adab83feb27ca28e802f2f2701f8a7d86d93d11f604fa1cc67e0f745");
}

// --- SoC builds -----------------------------------------------------------

// The cache is process-global; every test starts it empty and leaves it
// that way for whoever runs next. reset_cache() makes the next build a miss.
class SetupCostSoc : public ::testing::Test {
 protected:
  void SetUp() override { reset_cache(); }
  void TearDown() override { reset_cache(); }
  static void reset_cache() { FormatCache::instance().clear(); }
  static std::uint64_t hits() { return FormatCache::instance().stats().hits; }
};

soc::SocConfig distributed_cfg(std::uint64_t seed, soc::ProtectionLevel level) {
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.protection = level;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t tree_hashes(soc::Soc& soc) {
  return soc.lcf()->ic().tree().hash_count();
}

std::uint64_t full_tree_hashes(const soc::Soc& soc) {
  const std::uint64_t leaves =
      soc.config().ddr_protected_size / soc.config().line_bytes;
  return 2 * leaves - 1;
}

TEST_F(SetupCostSoc, CipherIntegrityBuildHashesNothingOnMissAndHit) {
  soc::Soc cold(distributed_cfg(11, soc::ProtectionLevel::kFull));
  const std::uint64_t h = hits();
  soc::Soc warm(distributed_cfg(11, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h + 1);
  EXPECT_EQ(tree_hashes(cold), 0u);
  EXPECT_EQ(tree_hashes(warm), 0u);
  // Reading the root hashes the whole tree from the image, the same work
  // on a hit as on a miss.
  EXPECT_EQ(warm.lcf()->ic().tree().root(), cold.lcf()->ic().tree().root());
  EXPECT_EQ(tree_hashes(cold), full_tree_hashes(cold));
  EXPECT_EQ(tree_hashes(warm), full_tree_hashes(warm));
}

TEST_F(SetupCostSoc, BypassBuildsHashNothingOnMissAndHit) {
  for (const auto level : {soc::ProtectionLevel::kPlaintext,
                           soc::ProtectionLevel::kCipherOnly}) {
    reset_cache();
    soc::Soc miss(distributed_cfg(12, level));
    const std::uint64_t h = hits();
    soc::Soc hit(distributed_cfg(12, level));
    EXPECT_EQ(hits(), h + 1);
    EXPECT_EQ(tree_hashes(miss), 0u) << static_cast<int>(level);
    EXPECT_EQ(tree_hashes(hit), 0u) << static_cast<int>(level);
  }
}

TEST_F(SetupCostSoc, BypassRunHashesNothingAndStillExposesTheFormatTree) {
  soc::Soc cipher(distributed_cfg(13, soc::ProtectionLevel::kCipherOnly));
  (void)cipher.run(5'000'000);
  EXPECT_EQ(tree_hashes(cipher), 0u);

  // Reading the tree of a bypass build yields the format-time tree, the
  // same one a cipher+integrity build of the same key starts from.
  reset_cache();
  soc::Soc full(distributed_cfg(13, soc::ProtectionLevel::kFull));
  EXPECT_EQ(cipher.lcf()->ic().tree().root(), full.lcf()->ic().tree().root());
}

TEST_F(SetupCostSoc, ConcurrentFullBuildsAfterABypassMissHashNothing) {
  // Batch-runner shape: a cipher-only miss publishes the image, then
  // threads build cipher+integrity SoCs from it at once. Each hit hashes
  // nothing; each tree reads the shared image and hashes only for itself.
  soc::Soc cipher(distributed_cfg(15, soc::ProtectionLevel::kCipherOnly));
  constexpr std::size_t kThreads = 8;
  std::vector<std::uint64_t> built(kThreads);
  std::vector<std::uint64_t> rooted(kThreads);
  std::vector<crypto::Sha256Digest> roots(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &built, &rooted, &roots] {
      soc::Soc full(distributed_cfg(15, soc::ProtectionLevel::kFull));
      built[t] = tree_hashes(full);
      roots[t] = full.lcf()->ic().tree().root();
      rooted[t] = tree_hashes(full);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(hits(), kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(built[t], 0u);
    EXPECT_EQ(rooted[t], full_tree_hashes(cipher));
    EXPECT_EQ(roots[t], roots[0]);
  }
  EXPECT_EQ(roots[0], cipher.lcf()->ic().tree().root());
}

// --- host work of a running job ---------------------------------------------

// One write-heavy cipher+integrity job of perfbench's ciphered_datapath
// workload (job 1 at seed 1): 3 CPUs x 1500 transactions over a 64 KiB
// protected region, so a 2048-leaf tree of depth 11.
soc::SocConfig pinned_datapath_cfg() {
  soc::SocConfig cfg = soc::section5_config();
  cfg.processors = 3;
  cfg.transactions_per_cpu = 1500;
  cfg.external_fraction = 0.6;
  cfg.ddr_protected_size = 64 * 1024;
  cfg.protection = soc::ProtectionLevel::kFull;
  cfg.write_fraction = 0.7;
  cfg.seed = scenario::derive_seed(1, 1);
  return cfg;
}

// The tree hashes each update's leaf and the leaf of each verify of a line
// written before, and nothing else: on an untampered tree the parents an
// update dirties are never read during the job, and a verify stops at the
// trusted leaf. The full-path walk this replaced hashed 1 + depth per
// operation, 46 284 for this job. The 1 387 verifies of lines still as
// formatted compare the line with the snapshot image and hash nothing. A
// hit and a miss build the same lazy tree and hash the same 2 470: 1 594
// updates and 876 verifies of written lines. The modeled cost
// (hash_invocations) still charges the whole path of every operation.
TEST_F(SetupCostSoc, PinnedDatapathJobHashesOnlyWrittenLines) {
  for (const bool cold : {true, false}) {
    SCOPED_TRACE(cold ? "cache miss" : "cache hit");
    soc::Soc soc(pinned_datapath_cfg());
    EXPECT_EQ(tree_hashes(soc), 0u);
    const auto results = soc.run(30'000'000);
    ASSERT_TRUE(results.completed);
    const IntegrityCore& ic = soc.lcf()->ic();
    EXPECT_EQ(ic.stats().updates, 1594u);
    EXPECT_EQ(ic.stats().verifies, 2263u);
    EXPECT_EQ(ic.stats().failures, 0u);
    EXPECT_EQ(ic.stats().hash_invocations,
              (1 + ic.tree().depth()) * (ic.stats().updates + ic.stats().verifies));
    EXPECT_EQ(ic.tree().hash_count(), 2470u);
  }
}

// --- the LCF on its own -----------------------------------------------------

constexpr sim::Addr kDdrBase = 0x8000'0000;
constexpr std::uint64_t kDdrSize = 64 * 1024;
constexpr std::uint64_t kProtSize = 8 * 1024;  // 256 lines of 32 bytes
constexpr std::uint64_t kLine = 32;
constexpr FirewallId kFw = 10;

crypto::Aes128Key test_key() {
  crypto::Aes128Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  return key;
}

SecurityPolicy lcf_policy(ConfidentialityMode cm, IntegrityMode im) {
  PolicyBuilder b(kFw);
  b.allow(kDdrBase, kDdrSize, RwAccess::kReadWrite, FormatMask::kAll, "ddr");
  b.confidentiality(cm);
  b.integrity(im);
  b.key(test_key());
  return b.build();
}

std::vector<std::uint8_t> pattern(std::size_t len, std::uint8_t salt) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 3 + salt + 1);
  }
  return out;
}

struct Lcf {
  Lcf(ConfidentialityMode cm, IntegrityMode im) {
    config_mem.install(kFw, lcf_policy(cm, im));
    mem::DdrMemory::Config ddr_cfg;
    ddr_cfg.base = kDdrBase;
    ddr_cfg.size = kDdrSize;
    ddr = std::make_unique<mem::DdrMemory>("ddr", ddr_cfg);
    LocalCipheringFirewall::Config cfg;
    cfg.protected_base = kDdrBase;
    cfg.protected_size = kProtSize;
    cfg.line_bytes = kLine;
    lcf = std::make_unique<LocalCipheringFirewall>("lcf", kFw, config_mem,
                                                   *ddr, cfg);
    lcf->format_protected_region();
    fw = std::make_unique<SlaveFirewall>("lcf", kFw, config_mem, log, *lcf);
  }

  bus::TransStatus write(sim::Addr addr, std::vector<std::uint8_t> data) {
    auto t = bus::make_write(0, addr, std::move(data));
    return fw->access(t, 0).status;
  }
  bus::TransStatus read_line(std::uint64_t line) {
    auto t = bus::make_read(0, kDdrBase + line * kLine, bus::DataFormat::kWord,
                            static_cast<std::uint16_t>(kLine / 4));
    return fw->access(t, 0).status;
  }
  std::uint32_t version(std::uint64_t line) const {
    return lcf->ic().version_of(kDdrBase + line * kLine);
  }
  std::string root() const { return hex(lcf->ic().tree().root()); }

  ConfigurationMemory config_mem;
  SecurityEventLog log;
  std::unique_ptr<mem::DdrMemory> ddr;
  std::unique_ptr<LocalCipheringFirewall> lcf;
  std::unique_ptr<SlaveFirewall> fw;
};

// Expected values recorded on the eager-tree implementation: the tree an
// integrity switch finds is the version-1 format tree, stale for every line
// written while integrity was bypassed.
void check_cipher_only_to_full_switch() {
  Lcf f(ConfidentialityMode::kCipher, IntegrityMode::kBypass);
  EXPECT_EQ(f.write(kDdrBase + 3 * kLine, pattern(32, 1)), bus::TransStatus::kOk);
  EXPECT_EQ(f.write(kDdrBase + 10 * kLine, pattern(32, 2)), bus::TransStatus::kOk);
  EXPECT_EQ(f.write(kDdrBase + 10 * kLine, pattern(32, 3)), bus::TransStatus::kOk);
  EXPECT_EQ(f.write(kDdrBase + 20 * kLine + 4, pattern(8, 4)),
            bus::TransStatus::kOk);
  EXPECT_EQ(f.lcf->ic().tree().hash_count(), 0u);  // bypass: nothing hashed

  f.config_mem.install(
      kFw, lcf_policy(ConfidentialityMode::kCipher, IntegrityMode::kHashTree));
  std::set<std::uint64_t> failing;
  for (std::uint64_t line = 0; line < kProtSize / kLine; ++line) {
    if (f.read_line(line) != bus::TransStatus::kOk) failing.insert(line);
  }
  EXPECT_EQ(failing, (std::set<std::uint64_t>{3, 10, 20}));
  EXPECT_EQ(f.root(),
            "13451c4a4f9c279279ab5bc6d43ebbde167eafd9fb0431f226f5b8b79cf645d5");
  EXPECT_EQ(f.version(3), 2u);
  EXPECT_EQ(f.version(10), 3u);
  EXPECT_EQ(f.version(20), 2u);
  EXPECT_EQ(f.version(0), 1u);

  // A write under integrity re-authenticates the line.
  EXPECT_EQ(f.write(kDdrBase + 3 * kLine, pattern(32, 5)), bus::TransStatus::kOk);
  EXPECT_EQ(f.read_line(3), bus::TransStatus::kOk);
  EXPECT_EQ(f.root(),
            "817d6243d091c75a253338650bef1cdaf2ef2bc67dab1da8382c4eb300715183");
  EXPECT_EQ(f.log.alerts().size(), 3u);
}

TEST_F(SetupCostSoc, CipherOnlyToFullSwitchMatchesEagerTree) {
  {
    SCOPED_TRACE("cache miss");
    reset_cache();
    check_cipher_only_to_full_switch();
  }
  {
    SCOPED_TRACE("cache hit");
    check_cipher_only_to_full_switch();
  }
}

struct ModeRoots {
  ConfidentialityMode cm;
  IntegrityMode im;
  const char* format_root;
  const char* rotate_root;
};

// Roots and versions recorded on the eager-tree implementation.
constexpr const char* kCipherFormat =
    "13451c4a4f9c279279ab5bc6d43ebbde167eafd9fb0431f226f5b8b79cf645d5";
constexpr const char* kCipherRotate =
    "9b067ea90e18b7f13a90c7acfb8df062565c02beb831658c998dd5a0c7c336db";
constexpr const char* kPlainFormat =
    "f0cbb6c3cf7fa4cf87d35a50f78e1bbc6021d188b3dd2c15478011b13feb7de5";
constexpr const char* kPlainRotate =
    "061334850dc90ed3f1190c138e6669cafc978e7b80646ddd200e700250c37069";

// A region is formatted once, at system initialization: the snapshot binds
// version 1 into every leaf, so a second format aborts instead of
// re-formatting in place.
TEST(SetupCostDeathTest, SecondFormatAborts) {
  Lcf f(ConfidentialityMode::kCipher, IntegrityMode::kHashTree);
  EXPECT_DEATH(f.lcf->format_protected_region(), "format_from on a used core");
}

// The rotation roots were recorded after a re-format that zeroed line 7
// again; a zero write leaves the same plaintext for the rotation to re-key.
TEST_F(SetupCostSoc, TrafficAndKeyRotationKeepRootsAndVersions) {
  const ModeRoots modes[] = {
      {ConfidentialityMode::kCipher, IntegrityMode::kHashTree, kCipherFormat,
       kCipherRotate},
      {ConfidentialityMode::kCipher, IntegrityMode::kBypass, kCipherFormat,
       kCipherRotate},
      {ConfidentialityMode::kBypass, IntegrityMode::kHashTree, kPlainFormat,
       kPlainRotate},
      {ConfidentialityMode::kBypass, IntegrityMode::kBypass, kPlainFormat,
       kPlainRotate},
  };
  for (const ModeRoots& m : modes) {
    SCOPED_TRACE(std::string(to_string(m.cm)) + "/" + to_string(m.im));
    Lcf f(m.cm, m.im);
    EXPECT_EQ(f.root(), m.format_root);

    f.write(kDdrBase + 7 * kLine, pattern(32, 9));
    f.write(kDdrBase + 7 * kLine, std::vector<std::uint8_t>(kLine, 0));
    f.write(kDdrBase + 5 * kLine, pattern(32, 6));
    crypto::Aes128Key new_key = test_key();
    new_key[15] ^= 0x55;
    (void)f.lcf->rotate_key(new_key);
    EXPECT_EQ(f.root(), m.rotate_root);
    EXPECT_EQ(f.version(5), 1u);
    EXPECT_EQ(f.version(0), 1u);
    EXPECT_EQ(f.read_line(5), bus::TransStatus::kOk);
  }
}

}  // namespace
}  // namespace secbus::core
