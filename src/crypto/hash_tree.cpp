#include "crypto/hash_tree.hpp"

#include <cstring>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace secbus::crypto {

HashTree::HashTree(const Config& cfg) : cfg_(cfg) {
  SECBUS_ASSERT(util::is_pow2(cfg.leaf_count) && cfg.leaf_count >= 2,
                "leaf_count must be a power of two >= 2");
  SECBUS_ASSERT(cfg.block_bytes > 0, "block_bytes must be nonzero");
  depth_ = util::log2_pow2(cfg.leaf_count);
}

Sha256Digest HashTree::stored_leaf(std::size_t leaf) const {
  if (!sparse()) return heap()[cfg_.leaf_count + leaf];
  if (!leaf_slot_.empty() && leaf_slot_[leaf] != 0) {
    return overlay_[leaf_slot_[leaf] - 1];
  }
  const Sha256Digest digest = lazy_leaf(leaf);
  set_overlay_leaf(leaf, digest);
  return digest;
}

Sha256Digest HashTree::lazy_leaf(std::size_t leaf) const {
  return leaf_hash(
      leaf, lazy_image_.subspan(leaf * cfg_.block_bytes, cfg_.block_bytes),
      lazy_version_);
}

bool HashTree::is_lazy_line(std::size_t leaf,
                            std::span<const std::uint8_t> data,
                            std::uint32_t version) const noexcept {
  if (!sparse() || version != lazy_version_) return false;
  if (!leaf_slot_.empty() && leaf_slot_[leaf] != 0) return false;
  return std::memcmp(data.data(), lazy_image_.data() + leaf * cfg_.block_bytes,
                     cfg_.block_bytes) == 0;
}

void HashTree::set_overlay_leaf(std::size_t leaf,
                                const Sha256Digest& digest) const {
  if (leaf_slot_.empty()) leaf_slot_.assign(cfg_.leaf_count, 0);
  std::uint32_t& slot = leaf_slot_[leaf];
  if (slot == 0) {
    overlay_.push_back(digest);
    slot = static_cast<std::uint32_t>(overlay_.size());
  } else {
    overlay_[slot - 1] = digest;
  }
}

std::vector<Sha256Digest>& HashTree::heap() const {
  if (!nodes_.empty()) return nodes_;
  const std::size_t leaves = cfg_.leaf_count;
  // Each leaf from the overlay, else hashed from the lazy image or, in a
  // tree never built, from a zero block; then every parent.
  nodes_.resize(2 * leaves);
  const std::vector<std::uint8_t> zero_block(cfg_.block_bytes, 0);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    if (!leaf_slot_.empty() && leaf_slot_[leaf] != 0) {
      nodes_[leaves + leaf] = overlay_[leaf_slot_[leaf] - 1];
    } else {
      nodes_[leaves + leaf] = lazy_image_.empty()
                                  ? leaf_hash(leaf, zero_block, 0)
                                  : lazy_leaf(leaf);
    }
  }
  rebuild_parents(nodes_);
  lazy_image_ = {};
  lazy_owner_ = nullptr;
  leaf_slot_ = {};
  overlay_ = {};
  return nodes_;
}

std::vector<Sha256Digest>& HashTree::flushed_heap() const {
  std::vector<Sha256Digest>& nodes = heap();
  if (!dirty_.empty()) {
    // Descending heap order finishes each level before its parents.
    for (std::size_t n = cfg_.leaf_count - 1; n >= 1; --n) {
      if (dirty_[n] != 0) nodes[n] = parent_hash(nodes[2 * n], nodes[2 * n + 1]);
    }
    dirty_.clear();
  }
  return nodes;
}

void HashTree::rebuild_parents(std::vector<Sha256Digest>& nodes) const {
  for (std::size_t n = cfg_.leaf_count - 1; n >= 1; --n) {
    nodes[n] = parent_hash(nodes[2 * n], nodes[2 * n + 1]);
  }
}

void HashTree::mark_ancestors_dirty(std::size_t heap_node) const {
  // An already dirty ancestor has dirty ancestors too, so marking stops
  // there.
  if (dirty_.empty()) dirty_.assign(cfg_.leaf_count, 0);
  for (std::size_t p = heap_node / 2; p >= 1 && dirty_[p] == 0; p /= 2) {
    dirty_[p] = 1;
  }
}

Sha256Digest HashTree::leaf_hash(std::size_t leaf,
                                 std::span<const std::uint8_t> data,
                                 std::uint32_t version) const noexcept {
  std::uint8_t binder[12];
  util::store_be64(binder, leaf_addr(leaf));
  util::store_be32(binder + 8, version);
  ++hashes_;
  // Fused one-shot: leaf/parent hashes are the Integrity Core's hot loop and
  // digest_parts compresses message+padding in a single batched call.
  return Sha256::digest_parts(
      {data, std::span<const std::uint8_t>(binder, sizeof(binder))});
}

Sha256Digest HashTree::parent_hash(const Sha256Digest& left,
                                   const Sha256Digest& right) const noexcept {
  ++hashes_;
  return Sha256::digest_parts(
      {std::span<const std::uint8_t>(left.data(), left.size()),
       std::span<const std::uint8_t>(right.data(), right.size())});
}

std::size_t HashTree::heap_index(std::size_t level, std::size_t idx) const {
  SECBUS_ASSERT(level <= depth_, "level out of range");
  const std::size_t level_width = cfg_.leaf_count >> level;
  SECBUS_ASSERT(idx < level_width, "node index out of range for level");
  return level_width + idx;
}

std::uint64_t HashTree::leaf_addr(std::size_t leaf) const noexcept {
  return cfg_.base_addr + static_cast<std::uint64_t>(leaf) * cfg_.block_bytes;
}

std::size_t HashTree::leaf_for_addr(std::uint64_t addr) const {
  SECBUS_ASSERT(addr >= cfg_.base_addr, "address below protected range");
  const std::uint64_t offset = addr - cfg_.base_addr;
  const std::uint64_t leaf = offset / cfg_.block_bytes;
  SECBUS_ASSERT(leaf < cfg_.leaf_count, "address above protected range");
  return static_cast<std::size_t>(leaf);
}

void HashTree::rebuild(std::span<const std::uint8_t> image,
                       std::span<const std::uint32_t> versions) {
  SECBUS_ASSERT(image.size() == cfg_.leaf_count * cfg_.block_bytes,
                "image size mismatch");
  SECBUS_ASSERT(versions.size() == cfg_.leaf_count, "versions size mismatch");
  std::vector<Sha256Digest> nodes(2 * cfg_.leaf_count);
  for (std::size_t leaf = 0; leaf < cfg_.leaf_count; ++leaf) {
    nodes[cfg_.leaf_count + leaf] =
        leaf_hash(leaf, image.subspan(leaf * cfg_.block_bytes, cfg_.block_bytes),
                  versions[leaf]);
  }
  rebuild_parents(nodes);
  restore_from(HashTree(cfg_));  // drop every other state, keep the count
  nodes_ = std::move(nodes);
}

void HashTree::rebuild_lazy(std::span<const std::uint8_t> image,
                            std::uint32_t version,
                            std::shared_ptr<const void> owner) {
  SECBUS_ASSERT(image.size() == cfg_.leaf_count * cfg_.block_bytes,
                "image size mismatch");
  restore_from(HashTree(cfg_));
  lazy_image_ = image;
  lazy_owner_ = std::move(owner);
  lazy_version_ = version;
}

HashTree::OpCost HashTree::update(std::size_t leaf,
                                  std::span<const std::uint8_t> data,
                                  std::uint32_t version) {
  SECBUS_ASSERT(leaf < cfg_.leaf_count, "leaf out of range");
  SECBUS_ASSERT(data.size() == cfg_.block_bytes, "data size mismatch");
  const Sha256Digest digest = leaf_hash(leaf, data, version);
  if (sparse()) {
    // The parents are due whenever heap() materializes the tree.
    set_overlay_leaf(leaf, digest);
  } else {
    // The parents are recomputed when next read (flushed_heap()).
    const std::size_t n = cfg_.leaf_count + leaf;
    heap()[n] = digest;
    mark_ancestors_dirty(n);
  }
  // The model still refreshes the whole path: the leaf, then per level one
  // hash that reads both children and writes the parent.
  OpCost cost;
  cost.hashes = 1 + depth_;
  cost.nodes_touched = 1 + 3 * depth_;
  return cost;
}

HashTree::VerifyResult HashTree::verify(std::size_t leaf,
                                        std::span<const std::uint8_t> data,
                                        std::uint32_t version) const {
  SECBUS_ASSERT(leaf < cfg_.leaf_count, "leaf out of range");
  SECBUS_ASSERT(data.size() == cfg_.block_bytes, "data size mismatch");
  VerifyResult result;
  result.cost.hashes = 1;
  result.cost.nodes_touched = 1;

  // Level 0: the data itself against the stored leaf. On an untampered
  // tree, data equal to a still-lazy leaf's image line at the lazy version
  // hashes to that leaf by construction: compare, hash nothing.
  const bool known_leaf = consistent_ && is_lazy_line(leaf, data, version);
  Sha256Digest computed_leaf{};
  if (!known_leaf) {
    const Sha256Digest stored = stored_leaf(leaf);
    computed_leaf = leaf_hash(leaf, data, version);
    if (!util::ct_equal({computed_leaf.data(), computed_leaf.size()},
                        {stored.data(), stored.size()})) {
      result.ok = false;
      result.first_bad_level = 0;
      return result;
    }
  }

  // Walk to the root: recompute each parent from the stored children. With
  // intermediate nodes off-chip, this is what guarantees the chain up to the
  // trusted on-chip root. On an untampered tree every step of the walk is
  // known to match, so only its cost is charged; only a tampered tree reads
  // internal nodes, so only it needs them fresh.
  if (consistent_) {
    result.ok = true;
    result.cost.hashes += depth_;
    result.cost.nodes_touched += 2 * depth_;
    return result;
  }
  const std::vector<Sha256Digest>& nodes = flushed_heap();
  std::size_t n = cfg_.leaf_count + leaf;
  std::size_t level = 0;
  Sha256Digest running = computed_leaf;
  while (n > 1) {
    const std::size_t sibling = n ^ 1;
    const Sha256Digest& left = (n < sibling) ? running : nodes[sibling];
    const Sha256Digest& right = (n < sibling) ? nodes[sibling] : running;
    running = parent_hash(left, right);
    result.cost.hashes += 1;
    result.cost.nodes_touched += 2;
    n /= 2;
    ++level;
    if (!util::ct_equal({running.data(), running.size()},
                        {nodes[n].data(), nodes[n].size()})) {
      result.ok = false;
      result.first_bad_level = level;
      return result;
    }
  }
  result.ok = true;
  return result;
}

void HashTree::restore_from(const HashTree& other) {
  SECBUS_ASSERT(other.cfg_.leaf_count == cfg_.leaf_count &&
                    other.cfg_.block_bytes == cfg_.block_bytes &&
                    other.cfg_.base_addr == cfg_.base_addr,
                "restore from a differently-configured tree");
  const std::uint64_t hashes = hashes_;
  *this = other;
  hashes_ = hashes;
}

void HashTree::poke_node(std::size_t level, std::size_t idx,
                         const Sha256Digest& digest) {
  flushed_heap()[heap_index(level, idx)] = digest;
  consistent_ = false;
}

const Sha256Digest& HashTree::peek_node(std::size_t level, std::size_t idx) const {
  return flushed_heap()[heap_index(level, idx)];
}

}  // namespace secbus::crypto
