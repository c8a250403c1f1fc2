// Campaign progress telemetry.
//
// Long campaigns run as detached shard worker processes; until now the only
// way to see how far one had gotten was to count checkpoint lines by hand.
// Each worker now appends periodic ProgressRecords to a sidecar JSONL file
// ("<campaign>.shard-<i>-of-<N>.progress.jsonl", next to the shard's result
// and checkpoint files), and `secbus_cli campaign status <dir>` renders the
// latest record of every shard as a live status table.
//
// The fleet control plane (campaign/fleet.hpp) reuses ProgressRecord as its
// heartbeat payload: workers sample progress with a ProgressSampler, ship
// the record inside each heartbeat message, and the server writes the
// records into ordinary sidecars — so `campaign status` renders a remote
// fleet and local `--shard` runs identically.
//
// Telemetry is wall-clock data — throughput, elapsed time, the process-wide
// format-cache hit counters — and therefore deliberately lives *outside*
// the deterministic result artifacts: progress files are never merged,
// fingerprinted or compared. Records are throttled (at most one per
// `min_interval_ms`, plus an unconditional first and final record) so the
// sidecar stays tiny even for 10k-job shards.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "util/jsonl.hpp"

namespace secbus::campaign {

// One progress sample from one shard worker.
struct ProgressRecord {
  std::string campaign;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t done = 0;   // completed jobs in this shard's slice (incl. resumed)
  std::size_t total = 0;  // slice size
  std::uint64_t elapsed_ms = 0;  // since the worker opened the sidecar
  double jobs_per_sec = 0.0;     // executed (not resumed) jobs / elapsed
  // Process-wide SoC-setup memoization counters (core::FormatCache) at the
  // sample point: cache effectiveness is a wall-clock property, so this is
  // its home (never the per-job deterministic metrics).
  std::uint64_t format_cache_hits = 0;
  std::uint64_t format_cache_misses = 0;
  bool finished = false;  // true only on the worker's final record
};

// JSON (de)serialization of one record — the sidecar line format and the
// fleet heartbeat payload are the same bytes.
[[nodiscard]] util::Json progress_record_to_json(const ProgressRecord& r);
bool progress_record_from_json(const util::Json& j, ProgressRecord& out);

// Sidecar file name: "<campaign>.shard-<i>-of-<N>.progress.jsonl" (same stem
// as the shard's result and checkpoint files).
[[nodiscard]] std::string progress_file_name(const std::string& campaign,
                                             std::size_t shard,
                                             std::size_t shards);

// Inverse of progress_file_name: recovers (campaign, shard, shards) from a
// sidecar file name. Lets `campaign status` identify a shard whose sidecar
// content is missing or corrupt — the row degrades to "unknown" instead of
// vanishing (or worse, erroring the whole table).
bool parse_progress_file_name(const std::string& file_name,
                              std::string& campaign, std::size_t& shard,
                              std::size_t& shards);

// Builds ProgressRecords from live counters: identity + start instant +
// the resumed-jobs baseline (checkpoint-restored jobs would otherwise
// inflate the throughput). ProgressWriter uses one internally; fleet
// workers use one directly to fill heartbeat payloads.
class ProgressSampler {
 public:
  // Stamps the start instant and resets the baseline.
  void begin(std::string campaign, std::size_t shard, std::size_t shards);

  // Jobs that were already done when this worker started (checkpoint
  // resume); excluded from the jobs/sec numerator.
  void set_baseline(std::size_t done) { baseline_done_ = done; }
  [[nodiscard]] std::size_t baseline() const noexcept {
    return baseline_done_;
  }

  // Milliseconds since begin().
  [[nodiscard]] std::uint64_t elapsed_ms() const;

  // One record at "now".
  [[nodiscard]] ProgressRecord sample(std::size_t done, std::size_t total,
                                      bool finished) const;

 private:
  std::string campaign_;
  std::size_t shard_ = 0;
  std::size_t shards_ = 1;
  std::size_t baseline_done_ = 0;
  std::chrono::steady_clock::time_point began_at_;
};

// Throttled, thread-safe JSONL appender for ProgressRecords. update() is
// safe to call from concurrent batch-runner completion callbacks; only
// samples that beat the throttle pay the serialization + write.
class ProgressWriter {
 public:
  // `min_interval_ms` throttles update(); 0 writes every sample (tests).
  bool open(const std::string& path, std::string campaign, std::size_t shard,
            std::size_t shards, std::uint64_t min_interval_ms = 1000);

  // Progress sample; appends when the throttle allows (always for the
  // first sample after open).
  void update(std::size_t done, std::size_t total);

  // Unconditional final record with finished = true.
  void finish(std::size_t done, std::size_t total);

  // Appends a pre-built record verbatim, bypassing sampling and throttle.
  // The fleet server uses this to mirror heartbeat payloads into ordinary
  // sidecars.
  void append_record(const ProgressRecord& record);

  [[nodiscard]] bool ok();
  void close();

 private:
  void append_locked(std::size_t done, std::size_t total, bool finished);

  std::mutex mutex_;
  util::JsonlWriter writer_;
  ProgressSampler sampler_;
  std::uint64_t min_interval_ms_ = 1000;
  std::uint64_t last_write_ms_ = 0;
  bool wrote_any_ = false;
  bool have_baseline_ = false;
};

// Replays a progress sidecar. Malformed lines are skipped (torn tails are
// normal for a live or killed worker); returns false only when the file
// cannot be read at all.
bool read_progress_file(const std::string& path,
                        std::vector<ProgressRecord>& out,
                        std::string* error = nullptr);

// Latest state of one shard, as recovered from its sidecar.
struct ShardProgress {
  std::string path;
  ProgressRecord last;      // most recent complete record (when parsed)
  std::size_t records = 0;  // total complete records in the file
  // False when the sidecar held no complete record (missing content,
  // empty file, all-corrupt lines, or an unreadable file): `last` then
  // carries only the identity recovered from the file name, and the row
  // renders as "unknown".
  bool parsed = false;
  // Sidecar age (now - mtime) at scan time; drives the "stale" state.
  std::uint64_t age_ms = 0;
};

// A shard whose sidecar is older than this and not finished renders as
// "stale" — its worker missed ~30 heartbeat intervals or died.
inline constexpr std::uint64_t kDefaultStaleAfterMs = 30'000;

// Scans `dir` for "*.progress.jsonl" files and returns each shard's latest
// record, sorted by (campaign, shard). Files with no complete record are
// kept as unparsed rows (identity from the file name), never dropped.
// Returns false only when the directory itself cannot be read.
bool scan_progress_dir(const std::string& dir, std::vector<ShardProgress>& out,
                       std::string* error = nullptr);

// Human-readable status table for `campaign status`: one row per shard plus
// a totals row. States: finished, running, stale (no sidecar write for
// `stale_after_ms` and not finished), unknown (no complete record).
[[nodiscard]] std::string render_campaign_status(
    const std::vector<ShardProgress>& shards,
    std::uint64_t stale_after_ms = kDefaultStaleAfterMs);

// --- fleet observability ----------------------------------------------------

// The compact per-process registry snapshot a fleet worker piggybacks on
// each heartbeat frame (fleet_msg::heartbeat): shard throughput from the
// progress record, the process-wide FormatCache effectiveness, the crypto
// datapaths in use (crypto.hw_datapaths: bit 0 AES-NI, bit 1 SHA-NI), and
// the wire counters (net.*). The fleet server re-publishes every worker's
// latest snapshot under "fleet.worker<ordinal>.*" and sums them into
// "fleet.total.*" for the /metrics exposition. Wall-clock data only — never merged into the
// deterministic job metrics.
[[nodiscard]] obs::Registry worker_metrics_snapshot(
    const ProgressRecord& progress);

// Renders a fleet server /status document (FleetServer::status_json) as
// the single-screen view `campaign top` repaints: a summary line, the
// lease table (shard, state, owner, generation, deadline) and one row per
// known worker.
[[nodiscard]] std::string render_fleet_top(const util::Json& status);

}  // namespace secbus::campaign
