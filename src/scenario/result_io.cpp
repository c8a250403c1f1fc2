#include "scenario/result_io.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace secbus::scenario {

namespace {

using util::Json;
using util::JsonReader;
using util::JsonWriter;

// Counts and indices read straight into size_t fields.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

// The document types below are each described once, as a template over the
// direction: `io` is a JsonWriter (emit) or a JsonReader (decode, members
// in this order). Types with no plain JSON value get one overload per
// direction.

// security/protection/attack echo static to_string() storage: the reader
// rebinds through the parser so the const char* keeps pointing at it. The
// empty string is the JobResult default for security and protection (the
// job never ran).
bool enum_name(JsonWriter& w, const char* name, auto /*parse*/,
               bool /*empty_ok*/) {
  w.value(name);
  return true;
}

template <typename Enum>
bool enum_name(JsonReader& r, const char*& name,
               bool (*parse)(std::string_view, Enum&), bool empty_ok) {
  std::string text;
  if (!r.read(text)) return false;
  Enum value{};
  if (empty_ok && text.empty()) {
    name = "";
  } else if (parse(text, value)) {
    name = to_string(value);
  } else {
    return r.fail("unknown value '" + text + "'");
  }
  return true;
}

template <typename Io, typename Snapshot>
bool stat_members(Io& io, Snapshot& s) {
  return io.object([&] {
    return io.member("count", s.count) &&
           (s.count == 0 ||
            (io.member("mean", s.mean) && io.member("m2", s.m2) &&
             io.member("sum", s.sum) && io.member("min", s.min) &&
             io.member("max", s.max)));
  });
}

bool stat(JsonWriter& w, const util::RunningStat& stat) {
  const util::RunningStat::Snapshot snap = stat.snapshot();
  return stat_members(w, snap);
}

bool stat(JsonReader& r, util::RunningStat& stat) {
  util::RunningStat::Snapshot snap;
  if (!stat_members(r, snap)) return false;
  stat.restore(snap);
  return true;
}

// A histogram ships as sparse (cycle, count) pairs plus the overflow
// population. The bucket table alone cannot recover the sum (overflow
// samples only keep their saturated bucket), so the exact sum travels
// alongside, and min/max when there are samples.
template <typename Io, typename Fields>
bool hist_members(Io& io, Fields& h, auto&& buckets) {
  return io.object([&] {
    return io.member("count", h.count) &&
           io.member("overflow", h.overflow) && io.member("sum", h.sum) &&
           io.member("buckets", buckets) &&
           (h.count == 0 ||
            (io.member("min", h.min) && io.member("max", h.max)));
  });
}

struct HistFields {
  std::uint64_t count = 0;
  std::uint64_t overflow = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};

bool hist(JsonWriter& w, const util::LatencyHistogram& hist) {
  const HistFields h{hist.count(), hist.overflow(), hist.sum(), hist.min(),
                     hist.max()};
  return hist_members(w, h, [&] {
    w.begin_array();
    hist.for_each_bucket([&](std::uint64_t cycle, std::uint64_t n) {
      w.begin_array().value(cycle).value(n).end_array();
    });
    w.end_array();
    return true;
  });
}

bool hist(JsonReader& r, util::LatencyHistogram& hist) {
  HistFields h;
  thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  pairs.clear();
  // The table as a whole must be one a histogram can have written: strictly
  // ascending cycles (restore() would sum repeats into bytes that no longer
  // match the file), a population that adds up to `count` (otherwise
  // percentiles silently fall through to max and poison every merge),
  // buckets inside [min, max] (otherwise a percentile could land outside
  // them), and a sum no smaller than the buckets and the overflow samples
  // (each at least kTrackedMax) account for.
  std::uint64_t population = 0;
  // Sum of cycle * count over the buckets; past u64 it is past any sum.
  std::uint64_t floor_sum = 0;
  bool floor_past_u64 = false;
  const bool read = hist_members(r, h, [&] {
    if (!r.begin_array()) return false;
    while (r.next_item()) {
      std::uint64_t cycle = 0;
      std::uint64_t n = 0;
      if (!r.begin_array() || !r.next_item() || !r.read(cycle) ||
          !r.next_item() || !r.read(n) || r.next_item()) {
        return r.fail("malformed bucket entry");
      }
      if (cycle >= util::LatencyHistogram::kTrackedMax || n == 0) {
        return r.fail("bucket entry out of range");
      }
      if (!pairs.empty() && cycle <= pairs.back().first) {
        return r.fail("bucket cycles not strictly ascending");
      }
      if (population > UINT64_MAX - n) {
        return r.fail("bucket counts overflow u64");
      }
      population += n;
      std::uint64_t weight = 0;
      floor_past_u64 = floor_past_u64 ||
                       __builtin_mul_overflow(cycle, n, &weight) ||
                       __builtin_add_overflow(floor_sum, weight, &floor_sum);
      pairs.emplace_back(cycle, n);
    }
    return r.ok();
  });
  if (!read) return false;
  if (population > UINT64_MAX - h.overflow ||
      population + h.overflow != h.count) {
    return r.fail("buckets + overflow != count");
  }
  if (h.min > h.max) return r.fail("min > max");
  if (!pairs.empty() && pairs.front().first < h.min) {
    return r.fail("bucket below min");
  }
  // With overflow, max is at least kTrackedMax and so above every bucket.
  if (!pairs.empty() && pairs.back().first > h.max) {
    return r.fail("bucket above max");
  }
  std::uint64_t overflow_floor = 0;
  if (floor_past_u64 ||
      __builtin_mul_overflow(h.overflow, util::LatencyHistogram::kTrackedMax,
                             &overflow_floor) ||
      __builtin_add_overflow(floor_sum, overflow_floor, &floor_sum) ||
      h.sum < floor_sum) {
    return r.fail("sum below what the buckets and overflow account for");
  }
  hist.restore(pairs, h.overflow, h.count, h.sum, h.min, h.max);
  return true;
}

using Violations = std::array<std::uint64_t, core::kViolationKindCount>;

bool violations(JsonWriter& w, const Violations& v) {
  w.begin_array();
  for (const std::uint64_t n : v) w.value(n);
  w.end_array();
  return true;
}

bool violations(JsonReader& r, Violations& v) {
  std::size_t n = 0;
  bool read = r.begin_array();
  while (read && r.next_item()) read = n < v.size() && r.read(v[n++]);
  return (read && r.ok() && n == v.size()) ||
         r.fail("expected an array of " + std::to_string(v.size()) +
                " u64 counters");
}

bool metrics(JsonWriter& w, const obs::Registry& m) {
  m.write_json(w);
  return true;
}

bool metrics(JsonReader& r, obs::Registry& m) {
  return obs::Registry::read_json(r, m);
}

template <typename Io, typename Result>
bool job_result_members(Io& io, Result& j) {
  return io.object([&] {
    return io.member("index", j.index) && io.member("name", j.name) &&
           io.member("variant", j.variant) && io.member("cpus", j.cpus) &&
           io.member("security",
                     [&] {
                       return enum_name(io, j.security,
                                        soc::parse_security_mode, true);
                     }) &&
           io.member("protection",
                     [&] {
                       return enum_name(io, j.protection,
                                        soc::parse_protection_level, true);
                     }) &&
           io.member("seed", j.seed) &&
           io.member("extra_rules", j.extra_rules) &&
           io.member("line_bytes", j.line_bytes) &&
           io.member("attack",
                     [&] {
                       return enum_name(io, j.attack, parse_attack_kind,
                                        false);
                     }) &&
           io.member("topology", j.topology) &&
           io.member("segments", j.segments) &&
           io.member("max_hops", j.max_hops) &&
           io.member("soc", [&] {
             return io.object([&] {
               return io.member("cycles", j.soc.cycles) &&
                      io.member("completed", j.soc.completed) &&
                      io.member("transactions_ok", j.soc.transactions_ok) &&
                      io.member("transactions_failed",
                                j.soc.transactions_failed) &&
                      io.member("alerts", j.soc.alerts) &&
                      io.member("avg_access_latency",
                                j.soc.avg_access_latency) &&
                      io.member("bus_occupancy", j.soc.bus_occupancy) &&
                      io.member("bytes_moved", j.soc.bytes_moved) &&
                      io.member("latency_p50", j.soc.latency_p50) &&
                      io.member("latency_p95", j.soc.latency_p95) &&
                      io.member("latency_p99", j.soc.latency_p99) &&
                      io.member("latency_max", j.soc.latency_max);
             });
           }) &&
           io.member("cpu_latency", [&] { return stat(io, j.cpu_latency); }) &&
           io.member("latency_hist",
                     [&] { return hist(io, j.latency_hist); }) &&
           io.member("fw_passed", j.fw_passed) &&
           io.member("fw_blocked", j.fw_blocked) &&
           io.member("fw_check_cycles", j.fw_check_cycles) &&
           io.member("violations",
                     [&] { return violations(io, j.violations); }) &&
           io.member("attack_ran", j.attack_ran) &&
           io.member("detected", j.detected) &&
           io.member("attack_cycle", j.attack_cycle) &&
           io.member("detection_cycle", j.detection_cycle) &&
           io.member("detection_latency", j.detection_latency) &&
           io.member("contained", j.contained) &&
           io.member("containment_checked", j.containment_checked) &&
           io.member("victim_data_intact", j.victim_data_intact) &&
           io.member("victim_checked", j.victim_checked) &&
           io.member("victim_read_aborted", j.victim_read_aborted) &&
           io.member("flood_completed", j.flood_completed) &&
           io.member("flood_blocked", j.flood_blocked) &&
           io.member("manager_queue_wait", j.manager_queue_wait) &&
           io.member("sb_check_latency", j.sb_check_latency) &&
           io.member("lcf", [&] {
             return io.object([&] {
               return io.member("protected_reads", j.lcf.protected_reads) &&
                      io.member("protected_writes", j.lcf.protected_writes) &&
                      io.member("read_modify_writes",
                                j.lcf.read_modify_writes) &&
                      io.member("cc_cycles", j.lcf.cc_cycles) &&
                      io.member("ic_cycles", j.lcf.ic_cycles) &&
                      io.member("tree_depth", j.lcf.tree_depth);
             });
           }) &&
           // Only written when collection was on, so legacy results (and
           // runs without --metrics) serialize byte-identically to before.
           io.optional("metrics", !j.metrics.empty(),
                       [&] { return metrics(io, j.metrics); });
  });
}

}  // namespace

void write_job_result(JsonWriter& w, const JobResult& r) {
  job_result_members(w, r);
}

bool read_job_result(JsonReader& r, JobResult& out) {
  out = JobResult{};
  return job_result_members(r, out);
}

Json job_result_to_json(const JobResult& r) {
  return util::written_tree([&](JsonWriter& w) { write_job_result(w, r); });
}

}  // namespace secbus::scenario
