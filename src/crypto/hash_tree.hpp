// Merkle hash tree over external-memory blocks (the Integrity Core's data
// structure, Section IV.B.2 of the paper).
//
// Each leaf authenticates one external-memory block of `block_bytes` bytes.
// The leaf hash binds three things:
//   H(data || block_address || write_version)
// * data           -> spoofing (forged ciphertext) changes the hash;
// * block_address  -> relocation (valid ciphertext moved elsewhere) changes
//                     the hash even though the data is authentic;
// * write_version  -> replay (stale ciphertext re-written to its own
//                     address) changes the hash because the stored version
//                     advanced. This is the paper's "time stamp tag".
// Internal nodes are H(left || right); the root is held in trusted on-chip
// storage. Intermediate nodes conceptually live off-chip, so the modeled
// cost (OpCost) of verify() and update() is the whole path to the root.
//
// The host hashes that path only when the answer is not already known. The
// tree tracks whether every internal node equals the hash of its children.
// rebuild(), the lazy zero tree and update() keep that invariant; only
// poke_node() (modeled off-chip tampering) breaks it. While it holds, a
// leaf that matches proves the whole walk would succeed, so verify() hashes
// the leaf alone and update() only marks the leaf's ancestors dirty. Dirty
// parents are recomputed bottom-up before anything reads an internal node
// (root(), nodes(), peek_node(), poke_node()). On a tampered tree verify()
// walks the whole path, which is how tests confirm the walk catches
// off-chip node corruption. Verdicts and OpCosts are the same either way.
//
// Construction hashes nothing. The node heap is filled by whichever comes
// first: rebuild(), restore_from(), or — for a tree read before it is ever
// built — the all-zero version-0 tree, computed on that first read. SoC
// setup always formats the tree it uses, so an eager zero tree there would
// be thrown away. Because reads may build the heap or recompute dirty
// parents, and every hash is counted (hash_count()), even const calls
// mutate: one tree must not be used from two threads at once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace secbus::crypto {

class HashTree {
 public:
  struct Config {
    std::size_t leaf_count = 0;   // must be a power of two >= 2
    std::size_t block_bytes = 0;  // bytes authenticated per leaf
    std::uint64_t base_addr = 0;  // address of leaf 0's block
  };

  // Cost of one tree operation in hash invocations and node accesses; the
  // Integrity Core timing model converts these to cycles.
  struct OpCost {
    std::size_t hashes = 0;
    std::size_t nodes_touched = 0;
  };

  struct VerifyResult {
    bool ok = false;
    // Level where the first mismatch was found: 0 = leaf, depth() = root.
    // Meaningless when ok.
    std::size_t first_bad_level = 0;
    OpCost cost;
  };

  explicit HashTree(const Config& cfg);

  // Rebuilds the whole tree from a memory image; image must cover
  // leaf_count * block_bytes bytes and versions must have leaf_count entries.
  void rebuild(std::span<const std::uint8_t> image,
               std::span<const std::uint32_t> versions);

  // Recomputes leaf `leaf` for new data at `version`; the path up to the
  // root is recomputed before it is next read. Costs the whole path.
  // Called by the Integrity Core on every protected write.
  OpCost update(std::size_t leaf, std::span<const std::uint8_t> data,
                std::uint32_t version);

  // Verifies block data against the tree: recomputes the leaf hash and, in
  // the model, walks to the root recomputing parents from stored siblings
  // (the host walks only a tampered tree, see above). Called on every
  // protected read.
  [[nodiscard]] VerifyResult verify(std::size_t leaf,
                                    std::span<const std::uint8_t> data,
                                    std::uint32_t version) const;

  [[nodiscard]] const Sha256Digest& root() const { return flushed_heap()[1]; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t leaf_count() const noexcept { return cfg_.leaf_count; }
  [[nodiscard]] std::size_t block_bytes() const noexcept { return cfg_.block_bytes; }
  [[nodiscard]] std::uint64_t base_addr() const noexcept { return cfg_.base_addr; }

  // Address of the block covered by `leaf`.
  [[nodiscard]] std::uint64_t leaf_addr(std::size_t leaf) const noexcept;

  // Leaf index covering `addr`; addr must lie inside the protected range.
  [[nodiscard]] std::size_t leaf_for_addr(std::uint64_t addr) const;

  // The flat node heap (1-based: [1] is the root, leaves last).
  [[nodiscard]] const std::vector<Sha256Digest>& nodes() const {
    return flushed_heap();
  }

  // Replaces this tree's nodes with `other`'s (setup memoization), together
  // with whether they are consistent and which parents are still pending,
  // so a heap taken from a tampered tree keeps its tamper verdicts. Hashes
  // nothing and keeps this tree's hash_count(); `other` is only read, so a
  // shared tree may be restored from on several threads at once. `other`
  // must have the same Config.
  void restore_from(const HashTree& other);

  // Leaf and parent hashes this tree has computed so far: rebuilds, updates,
  // verifies, dirty parents and the lazy zero tree. Per instance, so
  // setup-cost tests can prove a build hashed nothing and a job hashed one
  // leaf per operation.
  [[nodiscard]] std::uint64_t hash_count() const noexcept { return hashes_; }

  // --- test hooks -----------------------------------------------------
  // Overwrites a stored node, modeling off-chip tree-node corruption; from
  // then on verify() walks the whole path. level 0 = leaves, depth() =
  // root; idx indexes nodes within the level.
  void poke_node(std::size_t level, std::size_t idx, const Sha256Digest& digest);
  [[nodiscard]] const Sha256Digest& peek_node(std::size_t level, std::size_t idx) const;

 private:
  [[nodiscard]] Sha256Digest leaf_hash(std::size_t leaf,
                                       std::span<const std::uint8_t> data,
                                       std::uint32_t version) const noexcept;
  [[nodiscard]] Sha256Digest parent_hash(const Sha256Digest& left,
                                         const Sha256Digest& right) const noexcept;
  // Flat heap index of (level, idx): leaves live at [leaf_count, 2*leaf_count).
  [[nodiscard]] std::size_t heap_index(std::size_t level, std::size_t idx) const;
  // The node heap, first filled with the all-zero version-0 tree if nothing
  // has been built or restored yet.
  [[nodiscard]] std::vector<Sha256Digest>& heap() const;
  // heap() with every dirty parent recomputed: what readers of internal
  // nodes see.
  [[nodiscard]] std::vector<Sha256Digest>& flushed_heap() const;
  // Recomputes parents n-1 .. 1 from the leaves already in nodes_.
  void rebuild_parents() const;

  Config cfg_;
  std::size_t depth_ = 0;
  // 1-based heap: nodes_[1] root, children of n at 2n, 2n+1. nodes_[0] unused.
  // Empty until first built (see heap()).
  mutable std::vector<Sha256Digest> nodes_;
  // dirty_[n] marks internal node n as stale since an update; a dirty
  // node's ancestors are all dirty. Empty when no parent is stale.
  mutable std::vector<std::uint8_t> dirty_;
  // Every internal node equals the hash of its children (after dirty
  // parents are recomputed). Cleared by poke_node(), set by rebuilds.
  bool consistent_ = true;
  mutable std::uint64_t hashes_ = 0;
};

}  // namespace secbus::crypto
