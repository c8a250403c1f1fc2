#include "soc/soc.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace secbus::soc {

const char* to_string(SecurityMode mode) noexcept {
  switch (mode) {
    case SecurityMode::kNone: return "none";
    case SecurityMode::kDistributed: return "distributed";
    case SecurityMode::kCentralized: return "centralized";
  }
  return "?";
}

const char* to_string(ProtectionLevel level) noexcept {
  switch (level) {
    case ProtectionLevel::kPlaintext: return "plaintext";
    case ProtectionLevel::kCipherOnly: return "cipher-only";
    case ProtectionLevel::kFull: return "cipher+integrity";
  }
  return "?";
}

bool parse_security_mode(std::string_view text, SecurityMode& out) noexcept {
  if (text == "none") out = SecurityMode::kNone;
  else if (text == "distributed") out = SecurityMode::kDistributed;
  else if (text == "centralized") out = SecurityMode::kCentralized;
  else return false;
  return true;
}

bool parse_protection_level(std::string_view text,
                            ProtectionLevel& out) noexcept {
  if (text == "plaintext") out = ProtectionLevel::kPlaintext;
  else if (text == "cipher" || text == "cipher-only")
    out = ProtectionLevel::kCipherOnly;
  else if (text == "full" || text == "cipher+integrity")
    out = ProtectionLevel::kFull;
  else return false;
  return true;
}

namespace {

bool parse_size(std::string_view text, std::size_t& out) noexcept {
  if (text.empty() || text.size() > 6) return false;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  out = value;
  return true;
}

}  // namespace

bool parse_topology(std::string_view text, TopologySpec& out) noexcept {
  if (text == "flat") {
    out = TopologySpec::flat();
    return true;
  }
  std::size_t a = 0;
  std::size_t b = 0;
  if (text.rfind("star", 0) == 0) {
    if (!parse_size(text.substr(4), a) || a < 1 || a > 64) return false;
    out = TopologySpec::star(a);
    return true;
  }
  if (text.rfind("mesh", 0) == 0) {
    const std::size_t x = text.find('x', 4);
    if (x == std::string_view::npos) return false;
    if (!parse_size(text.substr(4, x - 4), a) ||
        !parse_size(text.substr(x + 1), b)) {
      return false;
    }
    if (a < 1 || b < 1 || a * b > 64) return false;
    out = TopologySpec::mesh(a, b);
    return true;
  }
  return false;
}

const char* to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kFlat: return "flat";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kMesh: return "mesh";
  }
  return "?";
}

std::string TopologySpec::label() const {
  switch (kind) {
    case TopologyKind::kFlat: return "flat";
    case TopologyKind::kStar: return "star" + std::to_string(star_leaves);
    case TopologyKind::kMesh:
      return "mesh" + std::to_string(mesh_rows) + "x" +
             std::to_string(mesh_cols);
  }
  return "?";
}

std::uint64_t AddressPlan::cpu_window_bytes(const SocConfig& cfg,
                                            std::size_t processors) {
  return util::align_down(cfg.ddr_protected_size / (processors + 1), 4096);
}

AddressPlan AddressPlan::from_config(const SocConfig& cfg) {
  SECBUS_ASSERT(cfg.bram_size > 16 * 1024, "BRAM too small for the plan");
  SECBUS_ASSERT(cfg.ddr_protected_base == cfg.ddr_base,
                "plan expects the protected window at the DDR base");
  SECBUS_ASSERT(cfg.ddr_protected_size < cfg.ddr_size,
                "plan expects an unprotected scratch region after the window");

  AddressPlan plan;
  const std::uint64_t boot_size = 16 * 1024;
  plan.bram_scratch = {cfg.bram_base, cfg.bram_size - boot_size};
  plan.bram_boot = {cfg.bram_base + cfg.bram_size - boot_size, boot_size};

  const std::uint64_t window = cpu_window_bytes(cfg, cfg.processors);
  SECBUS_ASSERT(window >= 4096, "protected region too small for CPU windows");
  for (std::size_t i = 0; i < cfg.processors; ++i) {
    plan.cpu_windows.push_back(
        {cfg.ddr_protected_base + i * window, window});
  }
  plan.shared_code = {cfg.ddr_protected_base + cfg.processors * window,
                      cfg.ddr_protected_size - cfg.processors * window};
  plan.ddr_scratch = {cfg.ddr_base + cfg.ddr_protected_size,
                      cfg.ddr_size - cfg.ddr_protected_size};
  return plan;
}

namespace {

crypto::Aes128Key derive_soc_key(std::uint64_t seed) {
  // The CK policy parameter; deterministic per SoC seed.
  std::uint64_t sm = seed ^ 0xC0DEC0DEC0DEC0DEULL;
  crypto::Aes128Key key{};
  for (std::size_t i = 0; i < key.size(); i += 8) {
    util::store_le64(key.data() + i, util::splitmix64_next(sm));
  }
  return key;
}

bus::FabricTopology to_fabric_topology(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kFlat: return bus::FabricTopology::flat();
    case TopologyKind::kStar:
      return bus::FabricTopology::star(spec.star_leaves, spec.hop_latency);
    case TopologyKind::kMesh:
      return bus::FabricTopology::mesh(spec.mesh_rows, spec.mesh_cols,
                                       spec.hop_latency);
  }
  SECBUS_UNREACHABLE("bad topology kind");
}

}  // namespace

std::size_t Soc::memory_segment() const noexcept {
  return cfg_.memory_segment;
}

std::size_t Soc::bram_segment() const noexcept {
  return cfg_.bram_segment == SocConfig::kAutoSegment ? cfg_.memory_segment
                                                      : cfg_.bram_segment;
}

std::size_t Soc::ddr_segment() const noexcept {
  return cfg_.ddr_segment == SocConfig::kAutoSegment ? cfg_.memory_segment
                                                     : cfg_.ddr_segment;
}

std::size_t Soc::dma_segment() const noexcept {
  return cfg_.dma_segment == SocConfig::kAutoSegment ? cfg_.memory_segment
                                                     : cfg_.dma_segment;
}

std::size_t Soc::cpu_segment(std::size_t i) const noexcept {
  const TopologySpec& topo = cfg_.topology;
  switch (topo.kind) {
    case TopologyKind::kFlat: return 0;
    case TopologyKind::kStar:
      // CPUs live on the leaves only; the hub is the memory segment.
      return 1 + (i % topo.star_leaves);
    case TopologyKind::kMesh:
      // Round-robin over the whole grid, memory corner included.
      return i % topo.segment_count();
  }
  return 0;
}

Soc::Soc(const SocConfig& cfg)
    : cfg_(cfg), plan_(AddressPlan::from_config(cfg)), trace_(cfg.trace_capacity) {
  SECBUS_ASSERT(cfg_.memory_segment < cfg_.topology.segment_count(),
                "memory_segment outside the fabric");
  SECBUS_ASSERT(cfg_.bram_segment == SocConfig::kAutoSegment ||
                    cfg_.bram_segment < cfg_.topology.segment_count(),
                "bram_segment outside the fabric");
  SECBUS_ASSERT(cfg_.ddr_segment == SocConfig::kAutoSegment ||
                    cfg_.ddr_segment < cfg_.topology.segment_count(),
                "ddr_segment outside the fabric");
  SECBUS_ASSERT(cfg_.dma_segment == SocConfig::kAutoSegment ||
                    cfg_.dma_segment < cfg_.topology.segment_count(),
                "dma_segment outside the fabric");
  fabric_ = std::make_unique<bus::Fabric>(to_fabric_topology(cfg_.topology));
  if (trace_.enabled()) fabric_->set_trace(&trace_);

  build_policies();
  build_memory();
  build_masters();
  fabric_->finalize();
  register_components();

  if (cfg_.enable_reconfig) {
    reconfig_ = std::make_unique<core::PolicyReconfigurator>(config_mem_, log_);
    // Integrity alerts from the LCF indicate *external* tampering; locking
    // down the external memory interface would be self-inflicted DoS.
    reconfig_->exempt(kFwLcf);
    if (trace_.enabled()) reconfig_->set_trace(&trace_);
  }
}

void Soc::append_extra_rules(core::PolicyBuilder& builder) const {
  // Dummy far-away segments that never match real traffic; they only grow
  // the rule list (policy-aggressiveness ablation).
  for (std::size_t i = 0; i < cfg_.extra_rules; ++i) {
    builder.allow(0xF000'0000ULL + i * 0x100, 0x80, core::RwAccess::kReadOnly,
                  core::FormatMask::k32, "ablation-dummy");
  }
}

core::SecurityPolicy Soc::cpu_policy(std::size_t i) const {
  SECBUS_ASSERT(i < cfg_.processors, "cpu_policy index out of range");
  core::PolicyBuilder b(static_cast<std::uint32_t>(kFwCpuBase + i));
  b.allow(plan_.bram_scratch.base, plan_.bram_scratch.size,
          core::RwAccess::kReadWrite, core::FormatMask::kAll, "bram-scratch");
  b.allow(plan_.bram_boot.base, plan_.bram_boot.size, core::RwAccess::kReadOnly,
          core::FormatMask::k32, "bram-boot");
  b.allow(plan_.cpu_windows[i].base, plan_.cpu_windows[i].size,
          core::RwAccess::kReadWrite, core::FormatMask::kAll, "private-ext");
  b.allow(plan_.shared_code.base, plan_.shared_code.size,
          core::RwAccess::kReadOnly, core::FormatMask::k32, "shared-code");
  b.allow(plan_.ddr_scratch.base, plan_.ddr_scratch.size,
          core::RwAccess::kReadWrite, core::FormatMask::kAll, "ext-scratch");
  append_extra_rules(b);
  return b.build();
}

core::SecurityPolicy Soc::dma_policy() const {
  core::PolicyBuilder b(kFwDma);
  b.allow(plan_.bram_scratch.base, plan_.bram_scratch.size,
          core::RwAccess::kReadWrite, core::FormatMask::k32, "bram-scratch");
  b.allow(plan_.shared_code.base, plan_.shared_code.size,
          core::RwAccess::kReadWrite, core::FormatMask::k32, "shared-code");
  b.allow(plan_.ddr_scratch.base, plan_.ddr_scratch.size,
          core::RwAccess::kReadWrite, core::FormatMask::k32, "ext-scratch");
  append_extra_rules(b);
  return b.build();
}

core::SecurityPolicy Soc::bram_policy() const {
  core::PolicyBuilder b(kFwBram);
  b.allow(plan_.bram_scratch.base, plan_.bram_scratch.size,
          core::RwAccess::kReadWrite, core::FormatMask::kAll, "bram-scratch");
  b.allow(plan_.bram_boot.base, plan_.bram_boot.size, core::RwAccess::kReadOnly,
          core::FormatMask::k32, "bram-boot");
  append_extra_rules(b);
  return b.build();
}

core::SecurityPolicy Soc::lcf_policy() const {
  core::PolicyBuilder b(kFwLcf);
  b.allow(cfg_.ddr_protected_base, cfg_.ddr_protected_size,
          core::RwAccess::kReadWrite, core::FormatMask::kAll, "ext-protected");
  b.allow(plan_.ddr_scratch.base, plan_.ddr_scratch.size,
          core::RwAccess::kReadWrite, core::FormatMask::kAll, "ext-scratch");
  append_extra_rules(b);
  switch (cfg_.protection) {
    case ProtectionLevel::kPlaintext:
      b.confidentiality(core::ConfidentialityMode::kBypass);
      b.integrity(core::IntegrityMode::kBypass);
      break;
    case ProtectionLevel::kCipherOnly:
      b.confidentiality(core::ConfidentialityMode::kCipher);
      b.integrity(core::IntegrityMode::kBypass);
      break;
    case ProtectionLevel::kFull:
      b.confidentiality(core::ConfidentialityMode::kCipher);
      b.integrity(core::IntegrityMode::kHashTree);
      break;
  }
  b.key(derive_soc_key(cfg_.seed));
  return b.build();
}

void Soc::build_policies() {
  // Policies install keyed by the fabric segment their firewall lives on, so
  // the per-segment Configuration Memories of a scaled-out fabric stay
  // attributable (and the report can group enforcement by segment).
  for (std::size_t i = 0; i < cfg_.processors; ++i) {
    config_mem_.install(static_cast<core::FirewallId>(kFwCpuBase + i),
                        cpu_policy(i), cpu_segment(i));
  }
  if (cfg_.dedicated_ip) {
    config_mem_.install(kFwDma, dma_policy(), dma_segment());
  }
  config_mem_.install(kFwBram, bram_policy(), bram_segment());
  config_mem_.install(kFwLcf, lcf_policy(), ddr_segment());
}

void Soc::build_memory() {
  bram_ = std::make_unique<mem::Bram>(
      "bram", mem::Bram::Config{cfg_.bram_base, cfg_.bram_size, 1});
  mem::DdrMemory::Config ddr_cfg;
  ddr_cfg.base = cfg_.ddr_base;
  ddr_cfg.size = cfg_.ddr_size;
  ddr_ = std::make_unique<mem::DdrMemory>("ddr", ddr_cfg);

  bus::SlaveDevice* bram_dev = bram_.get();
  bus::SlaveDevice* ddr_dev = ddr_.get();
  if (cfg_.security != SecurityMode::kNone) {
    const bool distributed = cfg_.security == SecurityMode::kDistributed;
    if (distributed) {
      // The DDR's firewall guards the LCF's ciphering datapath.
      core::LocalCipheringFirewall::Config lcf_cfg;
      lcf_cfg.protected_base = cfg_.ddr_protected_base;
      lcf_cfg.protected_size = cfg_.ddr_protected_size;
      lcf_cfg.line_bytes = cfg_.line_bytes;
      lcf_cfg.cc_latency = cfg_.cc_latency;
      lcf_cfg.cc_bits_per_cycle = cfg_.cc_bits_per_cycle;
      lcf_cfg.ic_latency = cfg_.ic_latency;
      lcf_cfg.ic_bits_per_cycle = cfg_.ic_bits_per_cycle;
      lcf_ = std::make_unique<core::LocalCipheringFirewall>(
          "lcf_ddr", kFwLcf, config_mem_, *ddr_, lcf_cfg);
      if (trace_.enabled()) lcf_->set_trace(&trace_);
      lcf_->format_protected_region();
      ddr_dev = lcf_.get();
    } else {
      manager_ = std::make_unique<baseline::CentralizedManager>(
          config_mem_, cfg_.sb_check_cycles);
    }
    // One slave-side firewall per memory: checked by its own SB, or by the
    // manager (whose firewalls record no trace events).
    const auto guard = [&](const char* name, core::FirewallId id,
                           bus::SlaveDevice& inner) {
      if (!distributed) {
        return std::make_unique<core::SlaveFirewall>(name, id, *manager_, log_,
                                                     inner);
      }
      auto fw = std::make_unique<core::SlaveFirewall>(
          name, id, config_mem_, log_, inner, cfg_.sb_check_cycles);
      if (trace_.enabled()) fw->set_trace(&trace_);
      return fw;
    };
    bram_fw_ = guard(distributed ? "lf_bram" : "gate_bram", kFwBram, *bram_dev);
    ddr_fw_ = guard(distributed ? "lcf_ddr" : "gate_ddr", kFwLcf, *ddr_dev);
    bram_dev = bram_fw_.get();
    ddr_dev = ddr_fw_.get();
  }

  // Each memory (and its slave-side protection) lands on its own home
  // segment — by default both resolve to cfg.memory_segment (historically
  // 0), but the secure BRAM and open DDR can be split across the fabric;
  // remote segments reach either through the fabric's bridge routes.
  const auto bram_slave = fabric_->add_slave(*bram_dev, bram_segment());
  fabric_->map_region(cfg_.bram_base, cfg_.bram_size, bram_slave, "bram");
  const auto ddr_slave = fabric_->add_slave(*ddr_dev, ddr_segment());
  fabric_->map_region(cfg_.ddr_base, cfg_.ddr_size, ddr_slave, "ddr");
}

bus::MasterEndpoint& Soc::wire_master(const std::string& name,
                                      sim::MasterId master_id,
                                      core::FirewallId fw_id,
                                      std::size_t segment,
                                      const core::LocalFirewall::Config* lf_cfg) {
  bus::MasterEndpoint& bus_ep = fabric_->attach_master(segment, master_id, name);
  std::unique_ptr<core::LocalFirewall> fw;
  switch (cfg_.security) {
    case SecurityMode::kNone:
      return bus_ep;
    case SecurityMode::kDistributed: {
      core::LocalFirewall::Config effective;
      if (lf_cfg != nullptr) effective = *lf_cfg;
      effective.check_cycles = cfg_.sb_check_cycles;
      fw = std::make_unique<core::LocalFirewall>("lf_" + name, fw_id,
                                                 config_mem_, log_, effective);
      if (trace_.enabled()) fw->set_trace(&trace_);
      break;
    }
    case SecurityMode::kCentralized:
      // No trace events; `lf_cfg` does not apply (see attach_custom_master).
      fw = std::make_unique<core::LocalFirewall>("gate_" + name, fw_id,
                                                 *manager_, log_);
      break;
  }
  fw->connect_bus(bus_ep);
  master_fws_.push_back(std::move(fw));
  return master_fws_.back()->ip_side();
}

void Soc::build_masters() {
  for (std::size_t i = 0; i < cfg_.processors; ++i) {
    ip::Processor::Workload w;
    w.targets.push_back({plan_.bram_scratch.base, plan_.bram_scratch.size,
                         1.0 - cfg_.external_fraction, false});
    w.targets.push_back({plan_.cpu_windows[i].base, plan_.cpu_windows[i].size,
                         cfg_.external_fraction * 0.7, true});
    w.targets.push_back({plan_.ddr_scratch.base, plan_.ddr_scratch.size,
                         cfg_.external_fraction * 0.3, true});
    w.write_fraction = cfg_.write_fraction;
    w.max_burst_beats = cfg_.max_burst_beats;
    w.compute_min = cfg_.compute_min;
    w.compute_max = cfg_.compute_max;
    w.total_transactions = cfg_.transactions_per_cpu;

    const std::string name = "cpu" + std::to_string(i);
    auto cpu = std::make_unique<ip::Processor>(
        name, static_cast<sim::MasterId>(kMasterCpuBase + i),
        cfg_.seed * 0x9E3779B9ULL + i + 1, w);
    cpu->connect(wire_master(name,
                             static_cast<sim::MasterId>(kMasterCpuBase + i),
                             static_cast<core::FirewallId>(kFwCpuBase + i),
                             cpu_segment(i), nullptr));
    masters_.push_back(cpu.get());
    processors_.push_back(std::move(cpu));
  }

  if (cfg_.dedicated_ip) {
    dma_ = std::make_unique<ip::DmaEngine>("dma", kMasterDma);
    dma_->connect(
        wire_master("dma", kMasterDma, kFwDma, dma_segment(), nullptr));
    masters_.push_back(dma_.get());
  }
}

void Soc::register_components() {
  for (auto& cpu : processors_) kernel_.add(*cpu);
  if (dma_ != nullptr) kernel_.add(*dma_);
  for (auto& fw : master_fws_) kernel_.add(*fw);
  fabric_->register_components(kernel_);
}

void Soc::attach_custom_master(ip::Master& master, core::SecurityPolicy policy,
                               const core::LocalFirewall::Config* lf_cfg,
                               std::size_t segment) {
  if (segment == kRemoteSegment) {
    // Most adversarial placement: farthest from the protected external
    // memory (the threat model's target), wherever the LCF lives.
    segment = fabric_->farthest_segment_from(ddr_segment());
  }
  SECBUS_ASSERT(segment < fabric_->segment_count(),
                "attach_custom_master: bad segment");
  const sim::MasterId index = next_custom_index_++;
  const auto master_id = static_cast<sim::MasterId>(kMasterScriptedBase + index);
  const auto fw_id = static_cast<core::FirewallId>(kMasterScriptedBase + index);
  SECBUS_ASSERT(!config_mem_.has_policy(fw_id),
                "custom-master firewall id collides with an installed policy");
  config_mem_.install(fw_id, std::move(policy), segment);

  master.connect(
      wire_master(master.name(), master_id, fw_id, segment, lf_cfg));
  if (cfg_.security != SecurityMode::kNone) kernel_.add(*master_fws_.back());
  kernel_.add(master);
  masters_.push_back(&master);
}

ip::ScriptedMaster& Soc::add_scripted_master(const std::string& name,
                                             core::SecurityPolicy policy,
                                             std::size_t segment) {
  auto master = std::make_unique<ip::ScriptedMaster>(
      name, static_cast<sim::MasterId>(kMasterScriptedBase + next_custom_index_));
  attach_custom_master(*master, std::move(policy), nullptr, segment);
  scripted_.push_back(std::move(master));
  return *scripted_.back();
}

void Soc::start_dma(const ip::DmaEngine::Job& job) {
  SECBUS_ASSERT(dma_ != nullptr, "SoC built without the dedicated IP");
  dma_->start(job);
}

SocResults Soc::run(sim::Cycle max_cycles) {
  // Going idle is not completing: a master still waiting on a response
  // that will never come leaves the kernel idle but the run unfinished.
  const bool idle = kernel_.run_until_idle(max_cycles);

  SocResults r;
  r.cycles = kernel_.now();
  r.completed = idle && std::all_of(
                             masters_.begin(), masters_.end(),
                             [](const ip::Master* m) { return m->done(); });
  util::RunningStat latency;
  latency_hist_.reset();
  for (const auto& cpu : processors_) {
    const auto& s = cpu->stats();
    r.transactions_ok += s.completed;
    r.transactions_failed += s.failed;
    r.bytes_moved += s.bytes_moved;
    if (s.latency.count() > 0) latency.add(s.latency.mean());
    latency_hist_.merge(s.latency_hist);
  }
  r.avg_access_latency = latency.mean();
  r.latency_p50 = latency_hist_.p50();
  r.latency_p95 = latency_hist_.p95();
  r.latency_p99 = latency_hist_.p99();
  r.latency_max = latency_hist_.max();
  r.alerts = log_.count();
  r.bus_occupancy = fabric_->occupancy();
  return r;
}

}  // namespace secbus::soc
