// Observability metrics registry.
//
// One flat, named view over the simulator's scattered per-component Stats
// structs. Components publish their counters under stable hierarchical
// names ("bus.seg0.grants", "core.lcf_ddr.lines_encrypted", ...) via
// contribute_metrics() methods; the registry snapshots them into a single
// deterministic JSON document that rides on JobResult and the batch /
// campaign reports behind `--metrics`.
//
// The registry is pull-model: nothing is registered, locked or allocated
// on the simulation hot path — a snapshot walks the already-maintained
// Stats structs once, after the run. Collection disabled therefore costs
// exactly zero cycles, which is the observability layer's contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace secbus::obs {

// One named sample. Counters are uint64-exact (event counts, cycle
// totals); gauges are doubles (rates, means, occupancies). The split
// matters because counters must survive a JSON round-trip bit-exactly
// (shard files / checkpoints merge byte-identically).
struct Metric {
  std::string name;
  bool is_counter = true;
  std::uint64_t count = 0;  // valid when is_counter
  double value = 0.0;       // valid when !is_counter
};

class Registry {
 public:
  void counter(std::string name, std::uint64_t value);
  void gauge(std::string name, double value);

  // Expands a RunningStat into <prefix>.count/.mean/.min/.max members
  // (count only when empty, so empty stats stay compact).
  void stat(const std::string& prefix, const util::RunningStat& s);

  // Expands a LatencyHistogram into <prefix>.count/.mean/.p50/.p95/.p99/
  // .max members (count only when empty).
  void hist(const std::string& prefix, const util::LatencyHistogram& h);

  [[nodiscard]] bool empty() const noexcept { return metrics_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

  // First metric with `name`, nullptr when absent.
  [[nodiscard]] const Metric* find(std::string_view name) const noexcept;
  // Counter value by name (0 when absent or a gauge).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;
  // Numeric value by name regardless of kind (0 when absent).
  [[nodiscard]] double value(std::string_view name) const noexcept;

  void clear() { metrics_.clear(); }

  // Flat {"a.b.c": n, ...} object with keys sorted lexicographically, so
  // the document is deterministic no matter what order components
  // contributed in. Duplicate names assert (they indicate two components
  // claiming the same identity). write_json streams it; to_json is the
  // same document as a tree.
  void write_json(util::JsonWriter& w) const;
  [[nodiscard]] util::Json to_json() const;

  // Inverse of to_json() for result-file round-trips: integer lexemes
  // restore as counters, everything else as gauges. A counter whose value
  // printed without a fraction restores as a counter with the same
  // emitted bytes, so re-serialization is byte-identical either way.
  // Non-finite gauges (which would print as null) are rejected.
  [[nodiscard]] static bool from_json(const util::Json& j, Registry& out,
                                      std::string* error = nullptr);
  // The same, decoded straight from the text; a repeated name is an error.
  [[nodiscard]] static bool read_json(util::JsonReader& r, Registry& out);

 private:
  std::vector<Metric> metrics_;
};

}  // namespace secbus::obs
