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
// Host memory and hashing follow what a job touches, not the tree's size:
// - Construction hashes nothing. A tree read before it is ever built reads
//   the all-zero version-0 tree, computed on that first read.
// - rebuild_lazy() hashes nothing: leaf i is H(image line i, version),
//   computed from the caller's immutable image on its first read and kept
//   in a small overlay with the leaves the tree writes. Copies and
//   restore_from() share the image.
// - Compare before hash: verify() of a leaf still lazy (never written,
//   never hashed), on an untampered tree, at the lazy version, with data
//   equal to its image line hashes nothing and stores nothing. Both sides
//   of the leaf check would hash the same bytes at the same address and
//   version, so the comparison gives the hash's verdict exactly. Any other
//   data or version is hashed as above, and so caught.
// The first read of an internal node materializes the whole heap in the
// tree's own storage (lazy or zero leaves, then the overlay, then parents);
// no job does that, tests and tamper scenarios do. Because reads may
// materialize the heap, and every hash is counted (hash_count()), even
// const calls mutate: one tree must not be used from two threads at once.
// A tree that is only copied from (restore_from's `other`) is only read.
#pragma once

#include <cstdint>
#include <memory>
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

  // rebuild() of `image` with every leaf at `version`, hashing nothing now:
  // a read compares against a leaf's image line, or hashes the leaf from
  // it, the parents when an internal node is read. `image` must stay
  // unchanged while `owner` lives; the tree and its copies hold `owner`.
  // Checking against the image, never the memory it was stored to, is what
  // keeps tampering with that memory before a line's first read detectable.
  void rebuild_lazy(std::span<const std::uint8_t> image, std::uint32_t version,
                    std::shared_ptr<const void> owner);

  // Recomputes leaf `leaf` for new data at `version`; the path up to the
  // root is recomputed before it is next read. Costs the whole path.
  // Called by the Integrity Core on every protected write.
  OpCost update(std::size_t leaf, std::span<const std::uint8_t> data,
                std::uint32_t version);

  // Verifies block data against the tree: recomputes the leaf hash and, in
  // the model, walks to the root recomputing parents from stored siblings
  // (the host walks only a tampered tree and skips the leaf hash of an
  // untouched lazy line, see above). Called on every protected read.
  [[nodiscard]] VerifyResult verify(std::size_t leaf,
                                    std::span<const std::uint8_t> data,
                                    std::uint32_t version) const;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
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

  // Replaces this tree's nodes with `other`'s, together with whether they
  // are consistent, which parents are still pending and which leaves are
  // still lazy, so a heap taken from a tampered tree keeps its tamper
  // verdicts. Shares `other`'s lazy image, copies what `other` holds beyond
  // it, hashes nothing and keeps this tree's hash_count(). `other` is only
  // read. `other` must have the same Config.
  void restore_from(const HashTree& other);

  // Leaf and parent hashes this tree has computed so far: rebuilds, updates,
  // verifies that hash, lazy leaves, dirty parents and the zero tree. Per
  // instance, so setup-cost tests can prove a build hashed nothing and a
  // job hashed one leaf per operation.
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
  // True while the leaves come from the lazy image plus the overlay, rather
  // than from nodes_.
  [[nodiscard]] bool sparse() const noexcept {
    return nodes_.empty() && !lazy_image_.empty();
  }
  // True when `leaf` is still lazy (no overlay slot) and `data` at
  // `version` is exactly its image line at the lazy version, so its leaf
  // hash would equal the lazy leaf's.
  [[nodiscard]] bool is_lazy_line(std::size_t leaf,
                                  std::span<const std::uint8_t> data,
                                  std::uint32_t version) const noexcept;
  // The stored hash of `leaf`; a lazy leaf is computed on this first read.
  [[nodiscard]] Sha256Digest stored_leaf(std::size_t leaf) const;
  // H(lazy image line `leaf`, lazy version).
  [[nodiscard]] Sha256Digest lazy_leaf(std::size_t leaf) const;
  void set_overlay_leaf(std::size_t leaf, const Sha256Digest& digest) const;
  // The whole node heap in nodes_, materialized on first use: hashed from
  // the lazy image or (never built) zero blocks, with the overlay's leaves
  // on top, then every parent.
  [[nodiscard]] std::vector<Sha256Digest>& heap() const;
  // heap() with every dirty parent recomputed: what readers of internal
  // nodes see.
  [[nodiscard]] std::vector<Sha256Digest>& flushed_heap() const;
  // Recomputes parents n-1 .. 1 of `nodes` from its leaves.
  void rebuild_parents(std::vector<Sha256Digest>& nodes) const;
  void mark_ancestors_dirty(std::size_t heap_node) const;

  Config cfg_;
  std::size_t depth_ = 0;
  // 1-based heap: nodes_[1] root, children of n at 2n, 2n+1. nodes_[0] unused.
  // Empty while sparse, and in a tree never built until it is first read.
  mutable std::vector<Sha256Digest> nodes_;
  // dirty_[n] marks internal node n of nodes_ as stale since an update; a
  // dirty node's ancestors are all dirty. Empty when no parent is stale.
  mutable std::vector<std::uint8_t> dirty_;
  // rebuild_lazy()'s source: leaf i is H(line i, lazy_version_).
  mutable std::span<const std::uint8_t> lazy_image_;
  mutable std::shared_ptr<const void> lazy_owner_;
  std::uint32_t lazy_version_ = 0;
  // Leaves hashed or written since the lazy rebuild: leaf_slot_[i] is 1 +
  // the index of leaf i's hash in overlay_, 0 if it is still lazy.
  mutable std::vector<std::uint32_t> leaf_slot_;
  mutable std::vector<Sha256Digest> overlay_;
  // Every internal node equals the hash of its children (after dirty
  // parents are recomputed). Cleared by poke_node(), set by rebuilds.
  bool consistent_ = true;
  mutable std::uint64_t hashes_ = 0;
};

}  // namespace secbus::crypto
