#include "core/integrity_core.hpp"

#include <cmath>

#include "core/format_cache.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace secbus::core {

namespace {
crypto::HashTree::Config tree_config(const IntegrityCore::Config& cfg) {
  SECBUS_ASSERT(cfg.line_bytes > 0 && cfg.protected_size % cfg.line_bytes == 0,
                "protected size must be whole lines");
  const std::uint64_t leaves = cfg.protected_size / cfg.line_bytes;
  SECBUS_ASSERT(secbus::util::is_pow2(leaves) && leaves >= 2,
                "line count must be a power of two >= 2");
  crypto::HashTree::Config tree_cfg;
  tree_cfg.leaf_count = static_cast<std::size_t>(leaves);
  tree_cfg.block_bytes = static_cast<std::size_t>(cfg.line_bytes);
  tree_cfg.base_addr = cfg.protected_base;
  return tree_cfg;
}
}  // namespace

IntegrityCore::IntegrityCore(const Config& cfg)
    : cfg_(cfg), tree_(tree_config(cfg)),
      versions_(tree_.leaf_count(), 0) {
  SECBUS_ASSERT(cfg.bits_per_cycle > 0.0, "IC throughput must be positive");
}

std::size_t IntegrityCore::leaf_of(sim::Addr line_addr) const {
  SECBUS_ASSERT(line_addr % cfg_.line_bytes == 0,
                "integrity operations are line-aligned");
  return tree_.leaf_for_addr(line_addr);
}

std::uint32_t IntegrityCore::version_of(sim::Addr line_addr) const {
  return versions_[leaf_of(line_addr)];
}

sim::Cycle IntegrityCore::cost_for_bits(std::uint64_t bits) const noexcept {
  const auto stream_cycles = static_cast<sim::Cycle>(
      std::ceil(static_cast<double>(bits) / cfg_.bits_per_cycle));
  return cfg_.latency_cycles + stream_cycles;
}

IntegrityCore::UpdateOutcome IntegrityCore::update_line(
    sim::Addr line_addr, std::span<const std::uint8_t> line) {
  const std::size_t leaf = leaf_of(line_addr);
  std::uint32_t& version = versions_[leaf];
  if (version == 0xFFFFFFFFu) {
    // Version wrap: a real LCF must re-key and re-encrypt before reuse; we
    // count the event so campaigns can assert it never silently happens.
    ++stats_.version_wraps;
  }
  ++version;
  const auto cost = tree_.update(leaf, line, version);
  ++stats_.updates;
  stats_.hash_invocations += cost.hashes;
  const sim::Cycle cycles = cost_for_bits(static_cast<std::uint64_t>(line.size()) * 8);
  stats_.cycles_charged += cycles;
  return {version, cycles};
}

IntegrityCore::VerifyOutcome IntegrityCore::verify_line(
    sim::Addr line_addr, std::span<const std::uint8_t> line) {
  const std::size_t leaf = leaf_of(line_addr);
  const auto result = tree_.verify(leaf, line, versions_[leaf]);
  ++stats_.verifies;
  stats_.hash_invocations += result.cost.hashes;
  if (!result.ok) ++stats_.failures;
  const sim::Cycle cycles = cost_for_bits(static_cast<std::uint64_t>(line.size()) * 8);
  stats_.cycles_charged += cycles;
  return {result.ok, cycles};
}

std::uint32_t IntegrityCore::advance_version(sim::Addr line_addr) {
  std::uint32_t& version = versions_[leaf_of(line_addr)];
  if (version == 0xFFFFFFFFu) ++stats_.version_wraps;
  return ++version;
}

bool IntegrityCore::pristine() const noexcept {
  for (const std::uint32_t version : versions_) {
    if (version != 0) return false;
  }
  return true;
}

void IntegrityCore::format_from(std::shared_ptr<const FormatSnapshot> snap) {
  SECBUS_ASSERT(pristine(),
                "format_from on a used core: snapshot binds version 1");
  SECBUS_ASSERT(snap != nullptr && snap->image.size() == cfg_.protected_size,
                "format snapshot from a differently-shaped region");
  std::fill(versions_.begin(), versions_.end(), 1);
  const std::span<const std::uint8_t> image = snap->image;
  tree_.rebuild_lazy(image, 1, std::move(snap));
}

void IntegrityCore::rebuild_from(std::span<const std::uint8_t> image) {
  std::fill(versions_.begin(), versions_.end(), 0);
  tree_.rebuild(image, std::span<const std::uint32_t>(versions_.data(),
                                                      versions_.size()));
}

void IntegrityCore::force_version(sim::Addr line_addr, std::uint32_t version) {
  versions_[leaf_of(line_addr)] = version;
}

}  // namespace secbus::core
