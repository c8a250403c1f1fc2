// Integrity Core (IC) — Section IV.B.2: "This module is based on hash-trees."
//
// Functional model: a Merkle tree (crypto::HashTree) over the protected
// external-memory range, with the per-line write-version ("time stamp tag",
// Section IV.A) and the line address bound into each leaf. The version table
// lives on-chip inside the LCF; this core owns both the table and the tree.
//
// Timing model: calibrated to Table II — 20 cycles of latency per integrity
// operation and a sustained 1.31 bits/cycle (131 Mb/s @ 100 MHz).
//
// Setup cost: construction hashes nothing, and neither does a region format
// (format_from): it advances the versions and makes the tree a lazy one
// over the snapshot image, on a FormatCache hit and miss alike. A job then
// hashes only the lines it writes and the lines it reads after they were
// written or tampered with; a read of a line still as formatted is checked
// by comparing it with the image (crypto::HashTree, compare before hash).
// A core whose policy bypasses integrity (plaintext, cipher-only) only
// moves versions; if a later policy switches integrity on, the tree it
// finds is the format-time tree.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/hash_tree.hpp"
#include "sim/types.hpp"

namespace secbus::core {

struct FormatSnapshot;

class IntegrityCore {
 public:
  struct Config {
    sim::Cycle latency_cycles = 20;  // Table II: integrity checking
    double bits_per_cycle = 1.31;    // 131 Mb/s @ 100 MHz
    sim::Addr protected_base = 0;
    std::uint64_t protected_size = 0;  // must be line_bytes * 2^k
    std::uint64_t line_bytes = 32;     // bytes authenticated per tree leaf
  };

  struct Stats {
    std::uint64_t updates = 0;
    std::uint64_t verifies = 0;
    std::uint64_t failures = 0;
    std::uint64_t hash_invocations = 0;
    std::uint64_t cycles_charged = 0;
    std::uint64_t version_wraps = 0;
  };

  struct VerifyOutcome {
    bool ok = false;
    sim::Cycle cycles = 0;
  };

  explicit IntegrityCore(const Config& cfg);

  // Current write-version of the line containing `addr`.
  [[nodiscard]] std::uint32_t version_of(sim::Addr line_addr) const;

  // Registers a write of a full line: bumps the version and recomputes the
  // leaf; the tree recomputes the path to the root before it is next read
  // (see crypto::HashTree). Stats charge the whole path either way.
  // Returns (new version, cycles charged).
  struct UpdateOutcome {
    std::uint32_t version = 0;
    sim::Cycle cycles = 0;
  };
  UpdateOutcome update_line(sim::Addr line_addr, std::span<const std::uint8_t> line);

  // Verifies a full line read at its current version.
  [[nodiscard]] VerifyOutcome verify_line(sim::Addr line_addr,
                                          std::span<const std::uint8_t> line);

  // Advances a line's version without touching the tree. Used in cipher-only
  // (IM=bypass) configurations where the version table still feeds the CC's
  // CTR tweak so keystream stays fresh per write.
  std::uint32_t advance_version(sim::Addr line_addr);

  // Rebuilds the whole tree from a plaintext/ciphertext image of the
  // protected region at version 0 (system initialization / key rotation).
  void rebuild_from(std::span<const std::uint8_t> image);

  // Formats a pristine core from `snap`, the stored image of the whole
  // protected region: advances every line to version 1 and rebuilds the
  // tree lazily over snap.image at version 1, hashing nothing; the tree
  // holds `snap`. Stats are untouched: formatting is init-time work. Only
  // valid on a pristine core, since the format binds version 1 into every
  // leaf: a region is formatted once, at system initialization.
  void format_from(std::shared_ptr<const FormatSnapshot> snap);

  // True while no line's version has ever advanced (the only state
  // format_from accepts).
  [[nodiscard]] bool pristine() const noexcept;

  [[nodiscard]] sim::Cycle cost_for_bits(std::uint64_t bits) const noexcept;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const crypto::HashTree& tree() const noexcept { return tree_; }
  [[nodiscard]] std::uint64_t line_count() const noexcept { return versions_.size(); }
  void reset_stats() noexcept { stats_ = {}; }

  // Test hook: force a line's version counter (e.g. near wrap-around).
  void force_version(sim::Addr line_addr, std::uint32_t version);

 private:
  [[nodiscard]] std::size_t leaf_of(sim::Addr line_addr) const;

  Config cfg_;
  crypto::HashTree tree_;
  std::vector<std::uint32_t> versions_;  // on-chip time-stamp tags, per line
  Stats stats_;
};

}  // namespace secbus::core
