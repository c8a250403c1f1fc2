#include "campaign/spec_io.hpp"

#include <limits>

#include "core/config_memory.hpp"
#include "util/bitops.hpp"

namespace secbus::campaign {

namespace {

bool fail(std::string* error, const std::string& path,
          const std::string& message) {
  // First error wins: nested readers bubble up without overwriting the most
  // specific path.
  if (error != nullptr && error->empty()) *error = path + ": " + message;
  return false;
}

std::string member_path(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

std::string index_path(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

// One JSON object being decoded: typed field extraction with range checks,
// then an unknown-key sweep. Every getter is a no-op when the key is absent
// (reader semantics are merge-onto-default).
class ObjectReader {
 public:
  ObjectReader(const util::Json& j, std::string path, std::string* error)
      : j_(j), path_(std::move(path)), error_(error) {
    ok_ = j_.is_object();
    if (!ok_) fail(error_, path_, "expected an object");
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string* error() const noexcept { return error_; }

  // Marks `key` as recognized and returns its value; nullptr when absent.
  const util::Json* take(const char* key) {
    known_.push_back(key);
    return ok_ ? j_.find(key) : nullptr;
  }

  template <typename T>
  bool u64_field(const char* key, T& out, std::uint64_t lo = 0,
                 std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
    const util::Json* v = take(key);
    if (v == nullptr) return ok_;
    std::uint64_t raw = 0;
    if (!v->to_u64(raw)) {
      return ok_ = fail(error_, member_path(path_, key),
                        "expected a non-negative integer");
    }
    if (raw < lo || raw > hi) {
      return ok_ = fail(error_, member_path(path_, key),
                        "value " + std::to_string(raw) + " out of range [" +
                            std::to_string(lo) + ", " + std::to_string(hi) +
                            "]");
    }
    out = static_cast<T>(raw);
    return ok_;
  }

  bool double_field(const char* key, double& out,
                    double lo = -std::numeric_limits<double>::infinity(),
                    double hi = std::numeric_limits<double>::infinity()) {
    const util::Json* v = take(key);
    if (v == nullptr) return ok_;
    if (!v->is_number()) {
      return ok_ = fail(error_, member_path(path_, key), "expected a number");
    }
    const double raw = v->as_double();
    if (raw < lo || raw > hi) {
      return ok_ = fail(error_, member_path(path_, key),
                        "value out of range [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
    }
    out = raw;
    return ok_;
  }

  bool bool_field(const char* key, bool& out) {
    const util::Json* v = take(key);
    if (v == nullptr) return ok_;
    if (!v->is_bool()) {
      return ok_ = fail(error_, member_path(path_, key),
                        "expected true or false");
    }
    out = v->as_bool();
    return ok_;
  }

  bool string_field(const char* key, std::string& out) {
    const util::Json* v = take(key);
    if (v == nullptr) return ok_;
    if (!v->is_string()) {
      return ok_ = fail(error_, member_path(path_, key), "expected a string");
    }
    out = v->as_string();
    return ok_;
  }

  // Call last: any member that was never take()n is a spec error.
  bool finish() {
    if (!ok_) return false;
    for (const util::Json::Member& m : j_.members()) {
      bool known = false;
      for (const char* k : known_) {
        if (m.first == k) {
          known = true;
          break;
        }
      }
      if (!known) {
        return ok_ = fail(error_, member_path(path_, m.first), "unknown key");
      }
    }
    return true;
  }

  bool mark_failed() { return ok_ = false; }

 private:
  const util::Json& j_;
  std::string path_;
  std::string* error_;
  std::vector<const char*> known_;
  bool ok_ = true;
};

constexpr sim::Cycle kDefaultHopLatency = 2;

}  // namespace

// --- topology ---------------------------------------------------------------

void write_topology(util::JsonWriter& w, const soc::TopologySpec& topo) {
  if (topo.hop_latency == kDefaultHopLatency) {
    w.value(topo.label());  // compact, parse_topology form
    return;
  }
  w.begin_object().member("kind", to_string(topo.kind));
  switch (topo.kind) {
    case soc::TopologyKind::kFlat:
      break;
    case soc::TopologyKind::kStar:
      w.member("leaves", topo.star_leaves);
      break;
    case soc::TopologyKind::kMesh:
      w.member("rows", topo.mesh_rows).member("cols", topo.mesh_cols);
      break;
  }
  w.member("hop_latency", topo.hop_latency).end_object();
}

bool topology_from_json(const util::Json& j, const std::string& path,
                        soc::TopologySpec& out, std::string* error) {
  if (j.is_string()) {
    soc::TopologySpec parsed;
    if (!soc::parse_topology(j.as_string(), parsed)) {
      return fail(error, path,
                  "unknown topology '" + j.as_string() +
                      "' (expected flat | star<leaves> | mesh<rows>x<cols>)");
    }
    out = parsed;
    return true;
  }
  ObjectReader r(j, path, error);
  if (!r.ok()) return false;
  std::string kind_text;
  const util::Json* kind = r.take("kind");
  if (kind == nullptr || !kind->is_string()) {
    return fail(error, member_path(path, "kind"),
                "topology objects need a \"kind\" string");
  }
  kind_text = kind->as_string();
  soc::TopologySpec topo;
  if (kind_text == "flat") {
    topo = soc::TopologySpec::flat();
  } else if (kind_text == "star") {
    topo.kind = soc::TopologyKind::kStar;
  } else if (kind_text == "mesh") {
    topo.kind = soc::TopologyKind::kMesh;
  } else {
    return fail(error, member_path(path, "kind"),
                "unknown topology kind '" + kind_text +
                    "' (expected flat | star | mesh)");
  }
  // Only the shape keys of the declared kind are known: "rows" on a star
  // (a star/mesh mix-up) must fail as an unknown key, not silently run the
  // default shape.
  if (topo.kind == soc::TopologyKind::kStar) {
    r.u64_field("leaves", topo.star_leaves, 1, 64);
  }
  if (topo.kind == soc::TopologyKind::kMesh) {
    r.u64_field("rows", topo.mesh_rows, 1, 64);
    r.u64_field("cols", topo.mesh_cols, 1, 64);
  }
  r.u64_field("hop_latency", topo.hop_latency, 1, 1'000'000);
  if (!r.finish()) return false;
  if (topo.segment_count() > 65) {
    return fail(error, path, "topology has more than 65 segments");
  }
  out = topo;
  return true;
}

// --- SocConfig --------------------------------------------------------------

void write_soc(util::JsonWriter& w, const soc::SocConfig& cfg) {
  w.begin_object().member("processors", cfg.processors);
  write_topology(w.key("topology"), cfg.topology);
  w.member("dedicated_ip", cfg.dedicated_ip)
      .member("memory_segment", cfg.memory_segment);
  const auto auto_or_index = [&w](const char* key, std::size_t segment) {
    w.key(key);
    if (segment == soc::SocConfig::kAutoSegment) {
      w.value("auto");
    } else {
      w.value(segment);
    }
  };
  auto_or_index("bram_segment", cfg.bram_segment);
  auto_or_index("ddr_segment", cfg.ddr_segment);
  auto_or_index("dma_segment", cfg.dma_segment);
  w.member("security", to_string(cfg.security))
      .member("protection", to_string(cfg.protection))
      .member("enable_reconfig", cfg.enable_reconfig)
      .member("trace_capacity", cfg.trace_capacity)
      .member("bram_base", cfg.bram_base)
      .member("bram_size", cfg.bram_size)
      .member("ddr_base", cfg.ddr_base)
      .member("ddr_size", cfg.ddr_size)
      .member("ddr_protected_base", cfg.ddr_protected_base)
      .member("ddr_protected_size", cfg.ddr_protected_size)
      .member("line_bytes", cfg.line_bytes)
      .member("clock_hz", cfg.clock.freq_hz)
      .member("sb_check_cycles", cfg.sb_check_cycles)
      .member("cc_latency", cfg.cc_latency)
      .member("cc_bits_per_cycle", cfg.cc_bits_per_cycle)
      .member("ic_latency", cfg.ic_latency)
      .member("ic_bits_per_cycle", cfg.ic_bits_per_cycle)
      .member("seed", cfg.seed)
      .member("transactions_per_cpu", cfg.transactions_per_cpu)
      .member("write_fraction", cfg.write_fraction)
      .member("external_fraction", cfg.external_fraction)
      .member("compute_min", cfg.compute_min)
      .member("compute_max", cfg.compute_max)
      .member("max_burst_beats", cfg.max_burst_beats)
      .member("extra_rules", cfg.extra_rules)
      .end_object();
}

bool soc_from_json(const util::Json& j, const std::string& path,
                   soc::SocConfig& out, std::string* error) {
  ObjectReader r(j, path, error);
  if (!r.ok()) return false;
  soc::SocConfig cfg = out;

  r.u64_field("processors", cfg.processors, 1, 64);
  if (const util::Json* topo = r.take("topology")) {
    if (!topology_from_json(*topo, member_path(path, "topology"),
                            cfg.topology, error)) {
      return r.mark_failed();
    }
  }
  r.bool_field("dedicated_ip", cfg.dedicated_ip);
  r.u64_field("memory_segment", cfg.memory_segment, 0, 64);
  const auto segment_field = [&](const char* name,
                                 std::size_t& out_segment) -> bool {
    const util::Json* v = r.take(name);
    if (v == nullptr) return true;
    if (v->is_string() && v->as_string() == "auto") {
      out_segment = soc::SocConfig::kAutoSegment;
      return true;
    }
    std::uint64_t seg = 0;
    if (!v->to_u64(seg) || seg > 64) {
      fail(error, member_path(path, name),
           "expected \"auto\" or a segment index");
      return false;
    }
    out_segment = static_cast<std::size_t>(seg);
    return true;
  };
  if (!segment_field("bram_segment", cfg.bram_segment)) {
    return r.mark_failed();
  }
  if (!segment_field("ddr_segment", cfg.ddr_segment)) return r.mark_failed();
  if (!segment_field("dma_segment", cfg.dma_segment)) return r.mark_failed();
  if (const util::Json* sec = r.take("security")) {
    if (!sec->is_string() ||
        !soc::parse_security_mode(sec->as_string(), cfg.security)) {
      fail(error, member_path(path, "security"),
           "unknown security mode (expected none | distributed | "
           "centralized)");
      return r.mark_failed();
    }
  }
  if (const util::Json* prot = r.take("protection")) {
    if (!prot->is_string() ||
        !soc::parse_protection_level(prot->as_string(), cfg.protection)) {
      fail(error, member_path(path, "protection"),
           "unknown protection level (expected plaintext | cipher-only | "
           "cipher+integrity)");
      return r.mark_failed();
    }
  }
  r.bool_field("enable_reconfig", cfg.enable_reconfig);
  r.u64_field("trace_capacity", cfg.trace_capacity);
  r.u64_field("bram_base", cfg.bram_base);
  r.u64_field("bram_size", cfg.bram_size, 1);
  r.u64_field("ddr_base", cfg.ddr_base);
  r.u64_field("ddr_size", cfg.ddr_size, 1);
  r.u64_field("ddr_protected_base", cfg.ddr_protected_base);
  r.u64_field("ddr_protected_size", cfg.ddr_protected_size, 1);
  r.u64_field("line_bytes", cfg.line_bytes, 16, 128);
  r.double_field("clock_hz", cfg.clock.freq_hz, 1.0);
  r.u64_field("sb_check_cycles", cfg.sb_check_cycles);
  r.u64_field("cc_latency", cfg.cc_latency);
  r.double_field("cc_bits_per_cycle", cfg.cc_bits_per_cycle, 0.0);
  r.u64_field("ic_latency", cfg.ic_latency);
  r.double_field("ic_bits_per_cycle", cfg.ic_bits_per_cycle, 0.0);
  r.u64_field("seed", cfg.seed);
  r.u64_field("transactions_per_cpu", cfg.transactions_per_cpu, 1);
  r.double_field("write_fraction", cfg.write_fraction, 0.0, 1.0);
  r.double_field("external_fraction", cfg.external_fraction, 0.0, 1.0);
  r.u64_field("compute_min", cfg.compute_min);
  r.u64_field("compute_max", cfg.compute_max);
  r.u64_field("max_burst_beats", cfg.max_burst_beats, 1, 256);
  r.u64_field("extra_rules", cfg.extra_rules, 0, 1024);
  if (!r.finish()) return false;

  // The structural invariants AddressPlan::from_config() would otherwise
  // assert on: report them as file errors, not a process abort.
  if (!util::is_pow2(cfg.line_bytes)) {
    return fail(error, member_path(path, "line_bytes"),
                "must be a power of two (16, 32, 64 or 128)");
  }
  if (cfg.bram_size <= 16 * 1024) {
    return fail(error, member_path(path, "bram_size"),
                "must exceed 16384 (the boot-window size)");
  }
  if (cfg.ddr_protected_base != cfg.ddr_base) {
    return fail(error, member_path(path, "ddr_protected_base"),
                "the protected window must start at ddr_base");
  }
  if (cfg.ddr_protected_size >= cfg.ddr_size) {
    return fail(error, member_path(path, "ddr_protected_size"),
                "must leave unprotected scratch after the window (be < "
                "ddr_size)");
  }
  if (cfg.compute_max < cfg.compute_min) {
    return fail(error, member_path(path, "compute_max"),
                "must be >= compute_min");
  }
  // The invariants the CC, IC and Security Builders assert on. The check
  // budget holds whatever the security mode: a grid's security axis can
  // turn distributed checks on.
  if (!(cfg.cc_bits_per_cycle > 0.0)) {
    return fail(error, member_path(path, "cc_bits_per_cycle"),
                "must be > 0 (CC throughput)");
  }
  if (!(cfg.ic_bits_per_cycle > 0.0)) {
    return fail(error, member_path(path, "ic_bits_per_cycle"),
                "must be > 0 (IC throughput)");
  }
  const sim::Cycle sp_fetch = core::ConfigurationMemory::Config{}.read_latency;
  if (cfg.sb_check_cycles < sp_fetch) {
    return fail(error, member_path(path, "sb_check_cycles"),
                "must be >= " + std::to_string(sp_fetch) +
                    " (the check budget covers the security-policy fetch "
                    "from the configuration memory)");
  }
  out = cfg;
  return true;
}

// --- AttackPlan -------------------------------------------------------------

void write_attack(util::JsonWriter& w, const scenario::AttackPlan& plan) {
  w.begin_object()
      .member("kind", to_string(plan.kind))
      .member("flood_writes", plan.flood_writes)
      .member("flood_burst_beats", plan.flood_burst_beats)
      .member("rate_limit_window", plan.rate_limit_window)
      .member("rate_limit_max", plan.rate_limit_max)
      .member("corruption_flips", plan.corruption_flips)
      .end_object();
}

bool attack_from_json(const util::Json& j, const std::string& path,
                      scenario::AttackPlan& out, std::string* error) {
  // A bare string is shorthand for {"kind": "..."} with default shaping.
  if (j.is_string()) {
    scenario::AttackPlan plan = out;
    if (!scenario::parse_attack_kind(j.as_string(), plan.kind)) {
      return fail(error, path,
                  "unknown attack kind '" + j.as_string() + "'");
    }
    out = plan;
    return true;
  }
  ObjectReader r(j, path, error);
  if (!r.ok()) return false;
  scenario::AttackPlan plan = out;
  if (const util::Json* kind = r.take("kind")) {
    if (!kind->is_string() ||
        !scenario::parse_attack_kind(kind->as_string(), plan.kind)) {
      fail(error, member_path(path, "kind"), "unknown attack kind");
      return r.mark_failed();
    }
  }
  r.u64_field("flood_writes", plan.flood_writes, 1, 10'000'000);
  r.u64_field("flood_burst_beats", plan.flood_burst_beats, 1, 256);
  r.u64_field("rate_limit_window", plan.rate_limit_window, 1);
  r.u64_field("rate_limit_max", plan.rate_limit_max, 1, 0xFFFF'FFFFULL);
  r.u64_field("corruption_flips", plan.corruption_flips, 1, 4096);
  if (!r.finish()) return false;
  out = plan;
  return true;
}

// --- ScenarioSpec -----------------------------------------------------------

void write_spec(util::JsonWriter& w, const scenario::ScenarioSpec& spec) {
  w.begin_object().member("name", spec.name);
  if (!spec.variant.empty()) w.member("variant", spec.variant);
  w.member("description", spec.description);
  write_soc(w.key("soc"), spec.soc);
  write_attack(w.key("attack"), spec.attack);
  w.member("max_cycles", spec.max_cycles).end_object();
}

bool spec_from_json(const util::Json& j, const std::string& path,
                    scenario::ScenarioSpec& out, std::string* error) {
  ObjectReader r(j, path, error);
  if (!r.ok()) return false;
  scenario::ScenarioSpec spec = out;
  r.string_field("name", spec.name);
  r.string_field("variant", spec.variant);
  r.string_field("description", spec.description);
  if (const util::Json* soc = r.take("soc")) {
    if (!soc_from_json(*soc, member_path(path, "soc"), spec.soc, error)) {
      return r.mark_failed();
    }
  }
  if (const util::Json* attack = r.take("attack")) {
    if (!attack_from_json(*attack, member_path(path, "attack"), spec.attack,
                          error)) {
      return r.mark_failed();
    }
  }
  r.u64_field("max_cycles", spec.max_cycles, 1);
  if (!r.finish()) return false;
  out = std::move(spec);
  return true;
}

// --- SweepAxes --------------------------------------------------------------

void write_axes(util::JsonWriter& w, const scenario::SweepAxes& axes,
                std::span<const scenario::AttackPlan> attacks) {
  w.begin_object();
  const auto axis = [&w](const char* key, const auto& values,
                         const auto& write_value) {
    if (values.empty()) return;
    w.key(key).begin_array();
    for (const auto& v : values) write_value(v);
    w.end_array();
  };
  const auto number = [&w](const auto v) { w.value(v); };
  const auto name = [&w](const auto v) { w.value(to_string(v)); };
  axis("attack", attacks,
       [&w](const scenario::AttackPlan& plan) { write_attack(w, plan); });
  axis("topology", axes.topology,
       [&w](const soc::TopologySpec& t) { write_topology(w, t); });
  axis("cpus", axes.cpus, number);
  axis("security", axes.security, name);
  axis("protection", axes.protection, name);
  axis("extra_rules", axes.extra_rules, number);
  axis("line_bytes", axes.line_bytes, number);
  axis("external_fraction", axes.external_fraction, number);
  axis("seeds", axes.seeds, number);
  w.end_object();
}

bool axes_from_json(const util::Json& j, const std::string& path,
                    std::uint64_t base_seed, scenario::SweepAxes& out,
                    std::string* error, bool allow_attack_key) {
  ObjectReader r(j, path, error);
  if (!r.ok()) return false;
  scenario::SweepAxes axes;
  if (allow_attack_key) r.take("attack");  // the campaign reader's axis

  if (const util::Json* topo = r.take("topology")) {
    if (!topo->is_array()) {
      fail(error, member_path(path, "topology"), "expected an array");
      return r.mark_failed();
    }
    for (std::size_t i = 0; i < topo->items().size(); ++i) {
      soc::TopologySpec t;
      if (!topology_from_json(
              topo->items()[i],
              index_path(member_path(path, "topology"), i), t, error)) {
        return r.mark_failed();
      }
      axes.topology.push_back(t);
    }
  }

  const auto u64_axis = [&](const char* key, auto& values, std::uint64_t lo,
                            std::uint64_t hi) -> bool {
    const util::Json* v = r.take(key);
    if (v == nullptr) return true;
    if (!v->is_array()) {
      fail(error, member_path(path, key), "expected an array");
      return false;
    }
    for (std::size_t i = 0; i < v->items().size(); ++i) {
      std::uint64_t raw = 0;
      if (!v->items()[i].to_u64(raw) || raw < lo || raw > hi) {
        fail(error, index_path(member_path(path, key), i),
             "expected an integer in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
        return false;
      }
      values.push_back(
          static_cast<typename std::decay_t<decltype(values)>::value_type>(
              raw));
    }
    return true;
  };

  if (!u64_axis("cpus", axes.cpus, 1, 64)) return r.mark_failed();

  if (const util::Json* sec = r.take("security")) {
    if (!sec->is_array()) {
      fail(error, member_path(path, "security"), "expected an array");
      return r.mark_failed();
    }
    for (std::size_t i = 0; i < sec->items().size(); ++i) {
      const util::Json& item = sec->items()[i];
      soc::SecurityMode mode;
      if (!item.is_string() ||
          !soc::parse_security_mode(item.as_string(), mode)) {
        fail(error, index_path(member_path(path, "security"), i),
             "unknown security mode (expected none | distributed | "
             "centralized)");
        return r.mark_failed();
      }
      axes.security.push_back(mode);
    }
  }
  if (const util::Json* prot = r.take("protection")) {
    if (!prot->is_array()) {
      fail(error, member_path(path, "protection"), "expected an array");
      return r.mark_failed();
    }
    for (std::size_t i = 0; i < prot->items().size(); ++i) {
      const util::Json& item = prot->items()[i];
      soc::ProtectionLevel level;
      if (!item.is_string() ||
          !soc::parse_protection_level(item.as_string(), level)) {
        fail(error, index_path(member_path(path, "protection"), i),
             "unknown protection level (expected plaintext | cipher-only | "
             "cipher+integrity)");
        return r.mark_failed();
      }
      axes.protection.push_back(level);
    }
  }

  if (!u64_axis("extra_rules", axes.extra_rules, 0, 1024)) {
    return r.mark_failed();
  }
  if (!u64_axis("line_bytes", axes.line_bytes, 16, 128)) {
    return r.mark_failed();
  }

  if (const util::Json* ext = r.take("external_fraction")) {
    if (!ext->is_array()) {
      fail(error, member_path(path, "external_fraction"),
           "expected an array");
      return r.mark_failed();
    }
    for (std::size_t i = 0; i < ext->items().size(); ++i) {
      const util::Json& item = ext->items()[i];
      const double f = item.as_double();
      if (!item.is_number() || f < 0.0 || f > 1.0) {
        fail(error, index_path(member_path(path, "external_fraction"), i),
             "expected a fraction in [0, 1]");
        return r.mark_failed();
      }
      axes.external_fraction.push_back(f);
    }
  }

  if (const util::Json* seeds = r.take("seeds")) {
    if (seeds->is_array()) {
      for (std::size_t i = 0; i < seeds->items().size(); ++i) {
        std::uint64_t s = 0;
        if (!seeds->items()[i].to_u64(s)) {
          fail(error, index_path(member_path(path, "seeds"), i),
               "expected a non-negative integer seed");
          return r.mark_failed();
        }
        axes.seeds.push_back(s);
      }
    } else {
      // Count shorthand: N deterministically derived repeats of the base
      // seed (derive_seed chain, repeat 0 = the base seed itself).
      std::uint64_t count = 0;
      if (!seeds->to_u64(count) || count < 1 || count > 10'000) {
        fail(error, member_path(path, "seeds"),
             "seed count out of range [1, 10000] (or pass an explicit "
             "array of seeds)");
        return r.mark_failed();
      }
      for (std::uint64_t rep = 0; rep < count; ++rep) {
        axes.seeds.push_back(scenario::derive_seed(base_seed, rep));
      }
    }
  }

  if (!r.finish()) return false;
  out = std::move(axes);
  return true;
}

}  // namespace secbus::campaign
