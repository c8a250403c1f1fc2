// Process-wide memoization of protected-region formatting (SoC setup).
//
// Every distributed-mode Soc construction formats the LCF's protected
// region: encrypt `protected_size` bytes of zeros line by line (CM=cipher)
// — work that is *identical* across every job sharing (region geometry,
// line size, confidentiality mode, key). Campaign grids cross attack/
// protection/topology/seed axes over a fixed memory layout, so thousands of
// jobs repeat the exact same format. This cache keys the finished image and
// lets later constructions skip the AES pass. DDR stores share the image's
// pages until they write them. No tree is cached: on a hit and a miss alike
// the Integrity Core's tree is a lazy one over the image, which hashes a
// line only once it is written, or read after a write or tampering.
//
// Bit-identity is the contract, not an optimization target: the key covers
// every input that reaches the image, a hit and a miss format the core
// from the same kind of snapshot, and core_test_format_cache + the
// determinism suite verify results are indistinguishable with the cache
// warm or cold (clear() before a build forces the miss path).
//
// The cache is per process (shard workers each warm their own), bounded
// (FIFO eviction), and thread-safe: batch-runner workers constructing SoCs
// concurrently share it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/aes128.hpp"
#include "sim/types.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::core {

// Everything that determines the formatted image: region geometry,
// line size, whether lines are enciphered, and the cipher key (the CTR
// nonce derives from the key, versions always start at zero). The key is
// all-zero — and irrelevant — when `ciphered` is false; callers must pass
// it zeroed so plaintext formats share one entry across seeds.
struct FormatKey {
  sim::Addr protected_base = 0;
  std::uint64_t protected_size = 0;
  std::uint64_t line_bytes = 0;
  bool ciphered = false;
  crypto::Aes128Key key{};

  bool operator==(const FormatKey&) const = default;
};

// The finished format: what the DDR backing store holds. Shared read-only
// between the cache, every DDR store that shares its image pages and every
// Integrity Core tree formatted lazily over it.
struct FormatSnapshot {
  std::vector<std::uint8_t> image;
};

class FormatCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  // ~64 entries x one image stays tens of MB for default geometries;
  // campaigns rarely need more than (seeds x line sizes) + 1 entries.
  static constexpr std::size_t kMaxEntries = 64;

  static FormatCache& instance();

  // Snapshot for `key`, or nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const FormatSnapshot> find(
      const FormatKey& key);

  // Publishes a freshly-computed snapshot. Concurrent inserts of the same
  // key are benign (workers compute identical snapshots; first wins).
  void insert(const FormatKey& key, std::shared_ptr<const FormatSnapshot> snap);

  // Drops every entry and zeroes the stats (test isolation; the next build
  // of every key takes the miss path).
  void clear();
  [[nodiscard]] Stats stats();

  // Publishes hit/miss counters and the hit rate under `prefix`. The cache
  // is process-wide and races across batch-runner threads, so these belong
  // in wall-clock telemetry (progress sidecars, benches) — never in
  // per-job deterministic artifacts.
  void contribute_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  FormatCache() = default;

  struct KeyHash {
    std::size_t operator()(const FormatKey& key) const noexcept;
  };

  std::mutex mutex_;
  Stats stats_;
  std::unordered_map<FormatKey, std::shared_ptr<const FormatSnapshot>, KeyHash>
      entries_;
  std::deque<FormatKey> insertion_order_;  // FIFO eviction
};

}  // namespace secbus::core
