// Differential test: crypto::HashTree against an eager reference Merkle tree.
//
// The reference rehashes the whole path on every update and walks the whole
// path on every verify, the straightforward reading of the model. HashTree
// hashes only what a verdict depends on (a leaf-only verify on an untampered
// tree, parents recomputed when next read, leaves of a lazy rebuild hashed
// when first needed, a read of a lazy line as formatted compared instead of
// hashed), so the two must agree on every observable: verify
// verdicts, first bad levels, OpCosts, the root and every node, across
// updates, tampering at every level, eager and lazy rebuilds, restores,
// copies and moves. The reference also bounds host work: HashTree never
// hashes more.
#include "crypto/hash_tree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace secbus::crypto {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kBase = 0x8000'0000;

// Eager reference: every node always current, every walk complete. Uses the
// streaming Sha256 context rather than HashTree's fused one-shot digests.
class RefTree {
 public:
  RefTree(std::size_t leaves, std::size_t block)
      : leaves_(leaves), block_(block), nodes_(2 * leaves) {
    while ((std::size_t{1} << depth_) < leaves_) ++depth_;
    const Bytes zeros(block_, 0);
    for (std::size_t leaf = 0; leaf < leaves_; ++leaf) {
      nodes_[leaves_ + leaf] = leaf_hash(leaf, zeros, 0);
    }
    rehash_parents();
  }

  Sha256Digest leaf_hash(std::size_t leaf, std::span<const std::uint8_t> data,
                         std::uint32_t version) {
    std::uint8_t binder[12];
    util::store_be64(binder, kBase + static_cast<std::uint64_t>(leaf) * block_);
    util::store_be32(binder + 8, version);
    Sha256 ctx;
    ctx.update(data);
    ctx.update(std::span<const std::uint8_t>(binder, sizeof(binder)));
    ++hashes_;
    return ctx.finalize();
  }

  Sha256Digest parent_hash(const Sha256Digest& left, const Sha256Digest& right) {
    Sha256 ctx;
    ctx.update(std::span<const std::uint8_t>(left.data(), left.size()));
    ctx.update(std::span<const std::uint8_t>(right.data(), right.size()));
    ++hashes_;
    return ctx.finalize();
  }

  void rebuild(std::span<const std::uint8_t> image,
               std::span<const std::uint32_t> versions) {
    for (std::size_t leaf = 0; leaf < leaves_; ++leaf) {
      nodes_[leaves_ + leaf] =
          leaf_hash(leaf, image.subspan(leaf * block_, block_), versions[leaf]);
    }
    rehash_parents();
  }

  HashTree::OpCost update(std::size_t leaf, std::span<const std::uint8_t> data,
                          std::uint32_t version) {
    HashTree::OpCost cost;
    std::size_t n = leaves_ + leaf;
    nodes_[n] = leaf_hash(leaf, data, version);
    cost.hashes += 1;
    cost.nodes_touched += 1;
    while (n > 1) {
      n /= 2;
      nodes_[n] = parent_hash(nodes_[2 * n], nodes_[2 * n + 1]);
      cost.hashes += 1;
      cost.nodes_touched += 3;
    }
    return cost;
  }

  HashTree::VerifyResult verify(std::size_t leaf,
                                std::span<const std::uint8_t> data,
                                std::uint32_t version) {
    HashTree::VerifyResult result;
    result.cost.hashes = 1;
    result.cost.nodes_touched = 1;
    Sha256Digest running = leaf_hash(leaf, data, version);
    std::size_t n = leaves_ + leaf;
    if (running != nodes_[n]) return result;  // first_bad_level 0
    std::size_t level = 0;
    while (n > 1) {
      const bool left_child = (n % 2) == 0;
      running = left_child ? parent_hash(running, nodes_[n + 1])
                           : parent_hash(nodes_[n - 1], running);
      result.cost.hashes += 1;
      result.cost.nodes_touched += 2;
      n /= 2;
      ++level;
      if (running != nodes_[n]) {
        result.first_bad_level = level;
        return result;
      }
    }
    result.ok = true;
    return result;
  }

  void poke(std::size_t level, std::size_t idx, const Sha256Digest& digest) {
    nodes_[(leaves_ >> level) + idx] = digest;
  }
  const Sha256Digest& peek(std::size_t level, std::size_t idx) const {
    return nodes_[(leaves_ >> level) + idx];
  }
  const Sha256Digest& root() const { return nodes_[1]; }
  const std::vector<Sha256Digest>& nodes() const { return nodes_; }
  std::size_t depth() const { return depth_; }
  std::uint64_t hash_count() const { return hashes_; }

  // Takes `other`'s nodes and keeps this tree's hash counter, like
  // HashTree::restore_from.
  void restore_from(const RefTree& other) { nodes_ = other.nodes_; }

 private:
  void rehash_parents() {
    for (std::size_t n = leaves_ - 1; n >= 1; --n) {
      nodes_[n] = parent_hash(nodes_[2 * n], nodes_[2 * n + 1]);
    }
  }

  std::size_t leaves_;
  std::size_t block_;
  std::size_t depth_ = 0;
  std::vector<Sha256Digest> nodes_;
  std::uint64_t hashes_ = 0;
};

// A HashTree, its reference twin, and what was last written to each leaf,
// so most verifies ask the question a real read would.
struct Pair {
  Pair(std::size_t leaves, std::size_t block)
      : tree(HashTree::Config{leaves, block, kBase}),
        ref(leaves, block),
        data(leaves, Bytes(block, 0)),
        versions(leaves, 0) {}

  HashTree tree;
  RefTree ref;
  std::vector<Bytes> data;
  std::vector<std::uint32_t> versions;
};

void expect_same_verify(const HashTree::VerifyResult& got,
                        const HashTree::VerifyResult& want) {
  EXPECT_EQ(got.ok, want.ok);
  if (!want.ok) {
    EXPECT_EQ(got.first_bad_level, want.first_bad_level);
  }
  EXPECT_EQ(got.cost.hashes, want.cost.hashes);
  EXPECT_EQ(got.cost.nodes_touched, want.cost.nodes_touched);
}

// `bounded`: the reference's hash count bounds the tree's. Not so once
// lazy rebuilds are in play: the reference hashes the image once, while
// every copy of a lazy tree hashes the leaves it reads itself.
void expect_same_nodes(const Pair& p, bool bounded = true) {
  EXPECT_EQ(p.tree.root(), p.ref.root());
  EXPECT_EQ(p.tree.nodes(), p.ref.nodes());
  if (bounded) {
    EXPECT_LE(p.tree.hash_count(), p.ref.hash_count());
  }
}

Bytes random_block(util::Xoshiro256& rng, std::size_t block) {
  Bytes out(block);
  rng.fill(std::span<std::uint8_t>(out.data(), out.size()));
  return out;
}

Sha256Digest random_digest(util::Xoshiro256& rng) {
  Sha256Digest out{};
  rng.fill(std::span<std::uint8_t>(out.data(), out.size()));
  return out;
}

// Verifies `leaf` on both trees with the last-written data, a wrong
// version, flipped data or fresh data, and compares the outcomes.
void verify_both(Pair& p, util::Xoshiro256& rng, std::size_t leaf,
                 std::size_t block) {
  Bytes data = p.data[leaf];
  std::uint32_t version = p.versions[leaf];
  switch (rng.below(8)) {
    case 0: version += 1; break;
    case 1: data[rng.below(block)] ^= 0x01; break;
    case 2: data = random_block(rng, block); break;
    default: break;  // the honest read
  }
  expect_same_verify(p.tree.verify(leaf, data, version),
                     p.ref.verify(leaf, data, version));
}

// Random image lines at one version: rebuild_lazy() on the tree, the
// eager rebuild on the reference. The tree holds the image.
void start_lazily(Pair& p, util::Xoshiro256& rng, std::uint32_t version) {
  const std::size_t leaves = p.data.size();
  const std::size_t block = p.data[0].size();
  const auto image = std::make_shared<Bytes>(leaves * block);
  rng.fill(std::span<std::uint8_t>(image->data(), image->size()));
  for (std::size_t l = 0; l < leaves; ++l) {
    p.data[l].assign(image->begin() + l * block,
                     image->begin() + (l + 1) * block);
    p.versions[l] = version;
  }
  p.tree.rebuild_lazy(*image, version, image);
  p.ref.rebuild(*image, p.versions);
}

// One seeded random sequence over every operation that reads or writes the
// tree. Tampering is rare, so long untampered stretches with pending
// parents occur between pokes and rebuilds. With `lazy`, the tree starts
// from a lazy rebuild and half the rebuilds are lazy.
void run_random_sequence(std::size_t leaves, std::size_t block,
                         std::uint64_t seed, std::size_t ops,
                         bool lazy = false) {
  util::Xoshiro256 rng(seed);
  Pair live(leaves, block);
  if (lazy) start_lazily(live, rng, 1);
  std::vector<Pair> saved;
  const std::size_t depth = live.ref.depth();
  for (std::size_t op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "leaves " << leaves << " seed "
                                      << seed << " op " << op);
    const std::uint64_t roll = rng.below(100);
    const std::size_t leaf = static_cast<std::size_t>(rng.below(leaves));
    if (roll < 35) {
      Bytes data = random_block(rng, block);
      const auto version = static_cast<std::uint32_t>(live.versions[leaf] + 1);
      const HashTree::OpCost got = live.tree.update(leaf, data, version);
      const HashTree::OpCost want = live.ref.update(leaf, data, version);
      EXPECT_EQ(got.hashes, want.hashes);
      EXPECT_EQ(got.nodes_touched, want.nodes_touched);
      live.data[leaf] = std::move(data);
      live.versions[leaf] = version;
    } else if (roll < 75) {
      verify_both(live, rng, leaf, block);
    } else if (roll < 78) {
      // Tamper with any node, leaves included: garbage, a copy of another
      // node at the same level (a swap), or the leaf hash of forged data,
      // which passes the leaf check and must fail higher up.
      const std::size_t level = static_cast<std::size_t>(rng.below(depth + 1));
      const std::size_t idx =
          static_cast<std::size_t>(rng.below(leaves >> level));
      Sha256Digest digest;
      switch (rng.below(3)) {
        case 0: digest = random_digest(rng); break;
        case 1:
          digest = live.ref.peek(level, static_cast<std::size_t>(
                                            rng.below(leaves >> level)));
          break;
        default: {
          const std::size_t victim = static_cast<std::size_t>(
              rng.below(leaves));
          Bytes forged = random_block(rng, block);
          digest = live.ref.leaf_hash(victim, forged, live.versions[victim]);
          live.tree.poke_node(0, victim, digest);
          live.ref.poke(0, victim, digest);
          expect_same_verify(
              live.tree.verify(victim, forged, live.versions[victim]),
              live.ref.verify(victim, forged, live.versions[victim]));
          continue;
        }
      }
      live.tree.poke_node(level, idx, digest);
      live.ref.poke(level, idx, digest);
    } else if (roll < 80) {
      // An eager rebuild at per-leaf versions, or (lazy sequences) a lazy
      // one at one version whose leaves are hashed on first read.
      const bool lazy_rebuild = lazy && rng.below(2) == 0;
      const auto image = std::make_shared<Bytes>(leaves * block);
      rng.fill(std::span<std::uint8_t>(image->data(), image->size()));
      const auto lazy_version = static_cast<std::uint32_t>(rng.below(4));
      std::vector<std::uint32_t> versions(leaves);
      for (std::size_t l = 0; l < leaves; ++l) {
        versions[l] = lazy_rebuild ? lazy_version
                                   : static_cast<std::uint32_t>(rng.below(4));
        live.data[l].assign(image->begin() + l * block,
                            image->begin() + (l + 1) * block);
      }
      if (lazy_rebuild) {
        live.tree.rebuild_lazy(*image, lazy_version, image);
      } else {
        live.tree.rebuild(*image, versions);
      }
      live.ref.rebuild(*image, versions);
      live.versions = versions;
    } else if (roll < 84) {
      saved.push_back(live);  // copy construction, pending parents included
    } else if (roll < 88 && !saved.empty()) {
      const Pair& from = saved[rng.below(saved.size())];
      live.tree.restore_from(from.tree);
      live.ref.restore_from(from.ref);
      live.data = from.data;
      live.versions = from.versions;
    } else if (roll < 90 && !saved.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.below(saved.size()));
      live = std::move(saved[pick]);  // move assignment
      saved.erase(saved.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 93) {
      EXPECT_EQ(live.tree.root(), live.ref.root());
    } else if (roll < 97) {
      const std::size_t level = static_cast<std::size_t>(rng.below(depth + 1));
      const std::size_t idx =
          static_cast<std::size_t>(rng.below(leaves >> level));
      EXPECT_EQ(live.tree.peek_node(level, idx), live.ref.peek(level, idx));
    } else {
      expect_same_nodes(live, !lazy);
    }
    if (::testing::Test::HasFailure()) return;
  }
  expect_same_nodes(live, !lazy);
  for (const Pair& p : saved) expect_same_nodes(p, !lazy);
}

TEST(HashTreeDiff, RandomSequencesMatchTheEagerReference) {
  for (const std::size_t leaves : {2u, 16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      run_random_sequence(leaves, 32, seed * 7919 + leaves, 1500);
      if (HasFailure()) return;
    }
  }
}

TEST(HashTreeDiff, RandomSequencesFromALazyTreeMatchTheEagerReference) {
  // Same operations, starting from a lazily rebuilt tree, so restores and
  // copies of partly materialized trees, pokes on unread leaves and root
  // reads that fill the rest all occur.
  for (const std::size_t leaves : {2u, 16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_random_sequence(leaves, 32, seed * 104729 + leaves, 1500,
                          /*lazy=*/true);
      if (HasFailure()) return;
    }
  }
}

TEST(HashTreeDiff, OddBlockSizeMatchesTheEagerReference) {
  run_random_sequence(8, 48, 42, 2000);
}

// Every node of a tree with pending parents, tampered in turn: each leaf's
// verdict, first bad level and cost match the full walk.
TEST(HashTreeDiff, EveryPokedNodeGivesTheReferenceVerdictOnEveryLeaf) {
  constexpr std::size_t kLeaves = 16;
  constexpr std::size_t kBlock = 32;
  util::Xoshiro256 rng(5);
  Pair base(kLeaves, kBlock);
  for (std::size_t leaf = 0; leaf < kLeaves; leaf += 3) {
    base.data[leaf] = random_block(rng, kBlock);
    base.versions[leaf] = 1;
    base.tree.update(leaf, base.data[leaf], 1);
    base.ref.update(leaf, base.data[leaf], 1);
  }
  for (std::size_t level = 0; level <= base.ref.depth(); ++level) {
    for (std::size_t idx = 0; idx < (kLeaves >> level); ++idx) {
      SCOPED_TRACE(::testing::Message() << "level " << level << " idx " << idx);
      Pair p = base;
      const Sha256Digest garbage = random_digest(rng);
      p.tree.poke_node(level, idx, garbage);
      p.ref.poke(level, idx, garbage);
      for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
        expect_same_verify(p.tree.verify(leaf, p.data[leaf], p.versions[leaf]),
                           p.ref.verify(leaf, p.data[leaf], p.versions[leaf]));
      }
      // Writes under a tampered tree rehash through the poked node exactly
      // as the eager tree does.
      const Bytes fresh = random_block(rng, kBlock);
      p.tree.update(idx << level, fresh, 9);
      p.ref.update(idx << level, fresh, 9);
      expect_same_nodes(p);
    }
  }
}

// A heap taken from a tampered tree stays tampered: restoring it elsewhere
// (as the setup cache does) must not turn its verify into the leaf-only
// check, which would accept data the tampered path rejects.
TEST(HashTreeDiff, RestoreFromAPokedTreeKeepsItsTamperVerdicts) {
  constexpr std::size_t kLeaves = 16;
  constexpr std::size_t kBlock = 32;
  util::Xoshiro256 rng(11);
  Pair poked(kLeaves, kBlock);
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    poked.data[leaf] = random_block(rng, kBlock);
    poked.versions[leaf] = 1;
    poked.tree.update(leaf, poked.data[leaf], 1);
    poked.ref.update(leaf, poked.data[leaf], 1);
  }
  const Sha256Digest garbage = random_digest(rng);
  // Node (2, 1) covers leaves 4..7; it is also the stored sibling that
  // leaves 0..3 hash against one level up.
  poked.tree.poke_node(2, 1, garbage);
  poked.ref.poke(2, 1, garbage);

  Pair restored(kLeaves, kBlock);
  restored.tree.restore_from(poked.tree);
  restored.ref.restore_from(poked.ref);
  EXPECT_EQ(restored.tree.hash_count(), 0u);  // restoring hashes nothing
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    const auto got = restored.tree.verify(leaf, poked.data[leaf], 1);
    expect_same_verify(got, restored.ref.verify(leaf, poked.data[leaf], 1));
    EXPECT_EQ(got.ok, leaf >= 8) << "leaf " << leaf;
  }
  const auto under_poke = restored.tree.verify(5, poked.data[5], 1);
  EXPECT_FALSE(under_poke.ok);
  EXPECT_EQ(under_poke.first_bad_level, 2u);
  const auto beside_poke = restored.tree.verify(1, poked.data[1], 1);
  EXPECT_FALSE(beside_poke.ok);
  EXPECT_EQ(beside_poke.first_bad_level, 3u);

  // Restoring an untampered tree over it makes leaf-only verifies sound
  // again, and they agree with the reference too.
  Pair clean(kLeaves, kBlock);
  restored.tree.restore_from(clean.tree);
  restored.ref.restore_from(clean.ref);
  const Bytes zeros(kBlock, 0);
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    expect_same_verify(restored.tree.verify(leaf, zeros, 0),
                       restored.ref.verify(leaf, zeros, 0));
  }
  expect_same_nodes(restored);
}

// The host work the reference does and HashTree skips: on an untampered
// tree a verify hashes the leaf alone and an update defers its parents.
TEST(HashTreeDiff, UntamperedTreeHashesOneLeafPerOperation) {
  constexpr std::size_t kLeaves = 64;
  constexpr std::size_t kBlock = 32;
  util::Xoshiro256 rng(3);
  Pair p(kLeaves, kBlock);
  (void)p.tree.root();  // build the zero tree: 2 * 64 - 1 hashes
  const std::uint64_t built = p.tree.hash_count();
  EXPECT_EQ(built, 2 * kLeaves - 1);
  for (std::size_t i = 0; i < 100; ++i) {
    const std::size_t leaf = static_cast<std::size_t>(rng.below(kLeaves));
    p.data[leaf] = random_block(rng, kBlock);
    ++p.versions[leaf];
    p.tree.update(leaf, p.data[leaf], p.versions[leaf]);
    p.ref.update(leaf, p.data[leaf], p.versions[leaf]);
    expect_same_verify(p.tree.verify(leaf, p.data[leaf], p.versions[leaf]),
                       p.ref.verify(leaf, p.data[leaf], p.versions[leaf]));
  }
  EXPECT_EQ(p.tree.hash_count(), built + 200);
  // The first read of an internal node recomputes each dirty parent once.
  EXPECT_EQ(p.tree.root(), p.ref.root());
  EXPECT_LE(p.tree.hash_count(), built + 200 + (kLeaves - 1));
  expect_same_nodes(p);
}

// --- lazy leaves ------------------------------------------------------------

constexpr std::size_t kLazyLeaves = 16;
constexpr std::size_t kLazyBlock = 32;

// A lazily rebuilt pair: nothing hashed until a leaf is read.
Pair lazy_pair(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Pair p(kLazyLeaves, kLazyBlock);
  start_lazily(p, rng, 1);
  EXPECT_EQ(p.tree.hash_count(), 0u);
  return p;
}

// The tree checks a read against the image it was given, not against the
// memory the image was stored to: a line changed there before its first
// read fails at the leaf, exactly as against the eagerly built tree.
TEST(HashTreeDiff, LazyLeafCatchesMemoryTamperedBeforeItsFirstRead) {
  Pair p = lazy_pair(21);
  std::vector<Bytes> memory = p.data;  // what a DDR holds after the format
  memory[5][7] ^= 0x20;
  const auto tampered = p.tree.verify(5, memory[5], 1);
  expect_same_verify(tampered, p.ref.verify(5, memory[5], 1));
  EXPECT_FALSE(tampered.ok);
  EXPECT_EQ(tampered.first_bad_level, 0u);
  EXPECT_TRUE(p.tree.verify(4, memory[4], 1).ok);
  EXPECT_FALSE(p.tree.verify(4, memory[4], 2).ok);  // stale version
  // The honest read of line 4 compared with the image; the two failing
  // reads each hashed their leaf from the image and the read data.
  EXPECT_EQ(p.tree.hash_count(), 2u + 2u);
  EXPECT_FALSE(p.tree.verify(5, memory[5], 1).ok);  // still caught
  EXPECT_EQ(p.tree.hash_count(), 2u + 3u);
}

// Same bytes as formatted, at a version the format did not bind: not the
// lazy leaf's input, so the read hashes and fails, as on the eager tree.
TEST(HashTreeDiff, LazyLineAtAnotherVersionFailsByHashing) {
  Pair p = lazy_pair(27);
  for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
    const std::uint64_t before = p.tree.hash_count();
    const auto got = p.tree.verify(6, p.data[6], version);
    expect_same_verify(got, p.ref.verify(6, p.data[6], version));
    EXPECT_FALSE(got.ok) << version;
    EXPECT_GT(p.tree.hash_count(), before) << version;
  }
  const std::uint64_t before = p.tree.hash_count();
  EXPECT_TRUE(p.tree.verify(6, p.data[6], 1).ok);
  EXPECT_EQ(p.tree.hash_count(), before + 1);  // the leaf is no longer lazy
}

// A poke makes the tree inconsistent: from then on even a line as
// formatted is hashed and walked to the root, and a line under the poke
// fails where the eager tree fails.
TEST(HashTreeDiff, PokeThenAnUntouchedLineWalksThePath) {
  Pair p = lazy_pair(28);
  util::Xoshiro256 rng(29);
  const Sha256Digest garbage = random_digest(rng);
  p.tree.poke_node(1, 5, garbage);  // covers leaves 10 and 11
  p.ref.poke(1, 5, garbage);
  const std::uint64_t before = p.tree.hash_count();
  const auto clean = p.tree.verify(0, p.data[0], 1);
  expect_same_verify(clean, p.ref.verify(0, p.data[0], 1));
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(p.tree.hash_count(), before + 1 + p.ref.depth());
  const auto under = p.tree.verify(10, p.data[10], 1);
  expect_same_verify(under, p.ref.verify(10, p.data[10], 1));
  EXPECT_FALSE(under.ok);
  EXPECT_EQ(under.first_bad_level, 1u);
}

// A lazily formatted tree as a job drives it: writes, reads of what memory
// holds, memory bytes flipped behind the tree's back, versions advanced
// without a tree update (a line written while integrity was bypassed) and
// poked nodes. Every read matches the reference's verdict, first bad level
// and cost; in total the tree never hashes more than the reference; and a
// read hashes nothing exactly when it is of a line as formatted (unwritten,
// bytes and version as the format left them) on an untampered tree.
void run_lazy_read_sequence(std::size_t leaves, std::uint64_t seed,
                            std::size_t ops) {
  constexpr std::size_t kBlock = 32;
  util::Xoshiro256 rng(seed);
  Pair p(leaves, kBlock);
  start_lazily(p, rng, 1);
  const std::vector<Bytes> image = p.data;  // the formatted lines
  std::vector<Bytes> memory = p.data;       // what the DDR holds
  std::vector<bool> written(leaves, false);
  bool poked = false;
  const std::size_t depth = p.ref.depth();
  for (std::size_t op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "leaves " << leaves << " seed "
                                      << seed << " op " << op);
    const std::uint64_t roll = rng.below(100);
    const std::size_t leaf = static_cast<std::size_t>(rng.below(leaves));
    if (roll < 20) {
      Bytes data = random_block(rng, kBlock);
      const auto version = static_cast<std::uint32_t>(p.versions[leaf] + 1);
      const HashTree::OpCost got = p.tree.update(leaf, data, version);
      const HashTree::OpCost want = p.ref.update(leaf, data, version);
      EXPECT_EQ(got.hashes, want.hashes);
      EXPECT_EQ(got.nodes_touched, want.nodes_touched);
      memory[leaf] = data;
      p.data[leaf] = std::move(data);
      p.versions[leaf] = version;
      written[leaf] = true;
    } else if (roll < 85) {
      const bool as_formatted = !poked && !written[leaf] &&
                                memory[leaf] == image[leaf] &&
                                p.versions[leaf] == 1;
      const std::uint64_t before = p.tree.hash_count();
      expect_same_verify(p.tree.verify(leaf, memory[leaf], p.versions[leaf]),
                         p.ref.verify(leaf, memory[leaf], p.versions[leaf]));
      EXPECT_EQ(p.tree.hash_count() == before, as_formatted);
    } else if (roll < 92) {
      // One bit of the stored line; flipping it again restores the line.
      memory[leaf][rng.below(kBlock)] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    } else if (roll < 97) {
      ++p.versions[leaf];
    } else {
      const std::size_t level = static_cast<std::size_t>(rng.below(depth + 1));
      const std::size_t idx =
          static_cast<std::size_t>(rng.below(leaves >> level));
      const Sha256Digest digest = random_digest(rng);
      p.tree.poke_node(level, idx, digest);
      p.ref.poke(level, idx, digest);
      poked = true;
    }
    EXPECT_LE(p.tree.hash_count(), p.ref.hash_count());
    if (::testing::Test::HasFailure()) return;
  }
  expect_same_nodes(p);
}

TEST(HashTreeDiff, LazyReadSequencesCompareOnlyLinesAsFormatted) {
  for (const std::size_t leaves : {2u, 16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      run_lazy_read_sequence(leaves, seed * 6151 + leaves, 1500);
      if (HasFailure()) return;
    }
  }
}

TEST(HashTreeDiff, RestoreFromAPartlyMaterializedLazyTree) {
  Pair p = lazy_pair(22);
  util::Xoshiro256 rng(23);
  Bytes forged = p.data[2];
  forged[0] ^= 0x01;
  EXPECT_FALSE(p.tree.verify(2, forged, 1).ok);  // materializes leaf 2
  p.data[9] = random_block(rng, kLazyBlock);
  p.versions[9] = 2;
  p.tree.update(9, p.data[9], 2);  // written, never read
  p.ref.update(9, p.data[9], 2);

  Pair restored(kLazyLeaves, kLazyBlock);
  restored.tree.restore_from(p.tree);
  restored.ref.restore_from(p.ref);
  restored.data = p.data;
  restored.versions = p.versions;
  EXPECT_EQ(restored.tree.hash_count(), 0u);  // restoring hashes nothing
  for (std::size_t leaf = 0; leaf < kLazyLeaves; ++leaf) {
    expect_same_verify(
        restored.tree.verify(leaf, restored.data[leaf], restored.versions[leaf]),
        restored.ref.verify(leaf, restored.data[leaf], restored.versions[leaf]));
  }
  // Leaves 2 and 9 came along, so their reads hash the data; the other 14
  // compared with the shared image.
  EXPECT_EQ(restored.tree.hash_count(), 2u);
  expect_same_nodes(restored);
  // The source is unaffected by its copy's reads and keeps working.
  EXPECT_EQ(p.tree.hash_count(), 2u + 1u);
  expect_same_nodes(p);
}

TEST(HashTreeDiff, RootAndPeekOfALazyTreeFillTheRest) {
  Pair peeked = lazy_pair(24);
  EXPECT_TRUE(peeked.tree.verify(0, peeked.data[0], 1).ok);
  EXPECT_EQ(peeked.tree.hash_count(), 0u);  // compared with the image
  EXPECT_EQ(peeked.tree.peek_node(0, 11), peeked.ref.peek(0, 11));
  // All 16 leaves, then 15 parents.
  EXPECT_EQ(peeked.tree.hash_count(), 2 * kLazyLeaves - 1);
  for (std::size_t level = 0; level <= peeked.ref.depth(); ++level) {
    for (std::size_t idx = 0; idx < (kLazyLeaves >> level); ++idx) {
      EXPECT_EQ(peeked.tree.peek_node(level, idx), peeked.ref.peek(level, idx));
    }
  }
  expect_same_nodes(peeked);

  Pair rooted = lazy_pair(24);
  EXPECT_EQ(rooted.tree.root(), rooted.ref.root());
  EXPECT_EQ(rooted.tree.hash_count(), 2 * kLazyLeaves - 1);
  EXPECT_EQ(rooted.tree.root(), peeked.tree.root());
}

TEST(HashTreeDiff, PokeOnAnUnmaterializedLazyLeaf) {
  Pair p = lazy_pair(25);
  util::Xoshiro256 rng(26);
  const Sha256Digest garbage = random_digest(rng);
  p.tree.poke_node(0, 3, garbage);
  p.ref.poke(0, 3, garbage);
  EXPECT_EQ(p.tree.peek_node(0, 3), garbage);
  for (std::size_t leaf = 0; leaf < kLazyLeaves; ++leaf) {
    expect_same_verify(p.tree.verify(leaf, p.data[leaf], 1),
                       p.ref.verify(leaf, p.data[leaf], 1));
  }
  EXPECT_FALSE(p.tree.verify(3, p.data[3], 1).ok);
  const auto sibling = p.tree.verify(2, p.data[2], 1);
  EXPECT_FALSE(sibling.ok);
  EXPECT_EQ(sibling.first_bad_level, 1u);
  expect_same_nodes(p);
}

}  // namespace
}  // namespace secbus::crypto
