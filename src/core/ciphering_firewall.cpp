#include "core/ciphering_firewall.hpp"

#include <cstring>
#include <memory>
#include <vector>

#include "core/format_cache.hpp"
#include "crypto/hmac.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace secbus::core {

namespace {

std::uint32_t derive_nonce(const crypto::Aes128Key& key) {
  // Domain-separated salt for the CTR tweak, derived from the policy's CK so
  // two LCFs with different keys never share keystream even at equal
  // addresses/versions.
  std::uint8_t out[4];
  static constexpr std::uint8_t kLabel[] = {'c', 'c', '-', 'n', 'o', 'n', 'c', 'e'};
  crypto::derive_key({key.data(), key.size()}, {kLabel, sizeof(kLabel)},
                     {out, sizeof(out)});
  return util::load_be32(out);
}

ConfidentialityCore::Config cc_config(const LocalCipheringFirewall::Config& cfg,
                                      const crypto::Aes128Key& key) {
  ConfidentialityCore::Config c;
  c.latency_cycles = cfg.cc_latency;
  c.bits_per_cycle = cfg.cc_bits_per_cycle;
  c.nonce = derive_nonce(key);
  return c;
}

IntegrityCore::Config ic_config(const LocalCipheringFirewall::Config& cfg) {
  IntegrityCore::Config c;
  c.latency_cycles = cfg.ic_latency;
  c.bits_per_cycle = cfg.ic_bits_per_cycle;
  c.protected_base = cfg.protected_base;
  c.protected_size = cfg.protected_size;
  c.line_bytes = cfg.line_bytes;
  return c;
}

}  // namespace

LocalCipheringFirewall::LocalCipheringFirewall(std::string name, FirewallId id,
                                               ConfigurationMemory& config_mem,
                                               mem::DdrMemory& inner, Config cfg)
    : name_(std::move(name)),
      id_(id),
      cfg_(cfg),
      config_mem_(&config_mem),
      inner_(&inner),
      cc_(config_mem.policy(id).key, cc_config(cfg, config_mem.policy(id).key)),
      ic_(ic_config(cfg)),
      scratch_stored_(cfg.line_bytes),
      scratch_plain_(cfg.line_bytes),
      scratch_write_(cfg.line_bytes) {
  SECBUS_ASSERT(cfg.line_bytes % crypto::kAesBlockBytes == 0,
                "line must be whole AES blocks");
  SECBUS_ASSERT(cfg.protected_base % cfg.line_bytes == 0,
                "protected base must be line-aligned");
  refresh_policy_cache();
  policy_generation_ = config_mem.generation();
}

void LocalCipheringFirewall::refresh_policy_cache() {
  const SecurityPolicy& policy = config_mem_->policy(id_);
  cm_ = policy.cm;
  im_ = policy.im;
}

bool LocalCipheringFirewall::in_protected_range(sim::Addr addr,
                                                std::uint64_t len) const noexcept {
  return addr >= cfg_.protected_base && len <= cfg_.protected_size &&
         addr - cfg_.protected_base <= cfg_.protected_size - len;
}

LocalCipheringFirewall::LineOp LocalCipheringFirewall::read_protected_line(
    sim::Addr line_addr, std::span<std::uint8_t> plain, sim::Cycle now) {
  LineOp op;
  std::vector<std::uint8_t>& stored = scratch_stored_;
  op.cycles += inner_->read_line(line_addr, stored, now);

  // Integrity first (the tree authenticates what is actually stored), then
  // decryption of the authenticated bytes.
  if (im_ == IntegrityMode::kHashTree) {
    const auto verify = ic_.verify_line(line_addr, stored);
    op.cycles += verify.cycles;
    if (trace_ != nullptr) {
      trace_->record({now, sim::TraceKind::kIntegrityOp, name_.c_str(), 0,
                      line_addr, verify.ok ? 1u : 0u});
    }
    if (!verify.ok) {
      ++stats_.integrity_failures;
      op.ok = false;
      return op;
    }
  }
  if (cm_ == ConfidentialityMode::kCipher) {
    op.cycles +=
        cc_.decrypt(line_addr, ic_.version_of(line_addr), stored, plain);
    ++stats_.lines_decrypted;
    if (trace_ != nullptr) {
      trace_->record({now, sim::TraceKind::kCipherOp, name_.c_str(), 0,
                      line_addr, cfg_.line_bytes});
    }
  } else {
    std::memcpy(plain.data(), stored.data(), plain.size());
  }
  return op;
}

LocalCipheringFirewall::LineOp LocalCipheringFirewall::write_protected_line(
    sim::Addr line_addr, std::span<const std::uint8_t> plain, sim::Cycle now) {
  LineOp op;
  // The bytes that go to memory: the plaintext itself, or its ciphertext.
  std::span<const std::uint8_t> stored = plain;

  if (cm_ == ConfidentialityMode::kCipher) {
    // Encrypt under the *next* version; the IC update below advances its
    // stored tag to the same value, keeping CC and IC in lockstep.
    const std::uint32_t next_version = ic_.version_of(line_addr) + 1;
    op.cycles += cc_.encrypt(line_addr, next_version, plain, scratch_write_);
    stored = scratch_write_;
    ++stats_.lines_encrypted;
    if (trace_ != nullptr) {
      trace_->record({now, sim::TraceKind::kCipherOp, name_.c_str(), 0,
                      line_addr, cfg_.line_bytes});
    }
  }
  if (im_ == IntegrityMode::kHashTree) {
    const auto update = ic_.update_line(line_addr, stored);
    op.cycles += update.cycles;
    if (trace_ != nullptr) {
      trace_->record({now, sim::TraceKind::kIntegrityOp, name_.c_str(), 0,
                      line_addr, 2});
    }
  } else if (cm_ == ConfidentialityMode::kCipher) {
    // No integrity tags: versions still advance so CTR keystream is fresh
    // per write (confidentiality does not degrade into a two-time pad).
    (void)ic_.advance_version(line_addr);
  }
  op.cycles += inner_->write_line(line_addr, stored, now);
  return op;
}

bus::AccessResult LocalCipheringFirewall::access(bus::BusTransaction& t,
                                                 sim::Cycle now) {
  if (config_mem_->generation() != policy_generation_) {
    refresh_policy_cache();
    policy_generation_ = config_mem_->generation();
  }

  // Outside the protected window: plain DDR access (the paper's unprotected
  // region — cheap but tamperable).
  if (!in_protected_range(t.addr, t.payload_bytes())) {
    ++stats_.passthrough;
    const auto inner_result = inner_->access(t, now);
    t.status = inner_result.status;
    return inner_result;
  }

  // Protected path: operate on whole lines.
  const sim::Addr first_line = util::align_down(t.addr, cfg_.line_bytes);
  const sim::Addr last_line =
      util::align_down(t.end_addr() - 1, cfg_.line_bytes);
  sim::Cycle cycles = 0;
  bool ok = true;

  if (t.op == bus::BusOp::kRead) {
    ++stats_.protected_reads;
    t.data.assign(t.payload_bytes(), 0);
    for (sim::Addr line = first_line; line <= last_line && ok;
         line += cfg_.line_bytes) {
      std::vector<std::uint8_t>& plain = scratch_plain_;
      const auto lineop = read_protected_line(line, plain, now);
      cycles += lineop.cycles;
      ok = lineop.ok;
      if (!ok) break;
      // Copy the overlap between this line and the requested window.
      const sim::Addr copy_begin = std::max<sim::Addr>(line, t.addr);
      const sim::Addr copy_end =
          std::min<sim::Addr>(line + cfg_.line_bytes, t.end_addr());
      std::memcpy(t.data.data() + (copy_begin - t.addr),
                  plain.data() + (copy_begin - line), copy_end - copy_begin);
    }
    if (!ok) {
      std::fill(t.data.begin(), t.data.end(), 0);
      t.status = bus::TransStatus::kIntegrityError;
      return {cycles, bus::TransStatus::kIntegrityError};
    }
  } else {
    ++stats_.protected_writes;
    for (sim::Addr line = first_line; line <= last_line && ok;
         line += cfg_.line_bytes) {
      const sim::Addr copy_begin = std::max<sim::Addr>(line, t.addr);
      const sim::Addr copy_end =
          std::min<sim::Addr>(line + cfg_.line_bytes, t.end_addr());
      std::vector<std::uint8_t>& plain = scratch_plain_;
      if (copy_end - copy_begin < cfg_.line_bytes) {
        // Partial-line write: read-modify-write of the full line (a whole
        // line write overwrites all of `plain` below).
        ++stats_.read_modify_writes;
        const auto rmw = read_protected_line(line, plain, now);
        cycles += rmw.cycles;
        if (!rmw.ok) {
          ok = false;
          break;
        }
      }
      std::memcpy(plain.data() + (copy_begin - line),
                  t.data.data() + (copy_begin - t.addr), copy_end - copy_begin);
      const auto wr = write_protected_line(line, plain, now);
      cycles += wr.cycles;
    }
    if (!ok) {
      t.status = bus::TransStatus::kIntegrityError;
      return {cycles, bus::TransStatus::kIntegrityError};
    }
  }
  t.status = bus::TransStatus::kOk;
  return {cycles, bus::TransStatus::kOk};
}

void LocalCipheringFirewall::format_protected_region() {
  // Thousands of campaign jobs format the exact same region (the format
  // only depends on geometry + mode + key, never on the attack/protection/
  // workload axes), so the finished image is memoized per process
  // (core::FormatCache). Cache hit or miss, the IC formats a lazy tree over
  // the same snapshot image and hashes nothing here.
  const bool ciphered = cm_ == ConfidentialityMode::kCipher;
  FormatKey cache_key;
  cache_key.protected_base = cfg_.protected_base;
  cache_key.protected_size = cfg_.protected_size;
  cache_key.line_bytes = cfg_.line_bytes;
  cache_key.ciphered = ciphered;
  // Plaintext images are key-independent; a zeroed key lets every seed
  // share the one entry.
  if (ciphered) cache_key.key = config_mem_->policy(id_).key;

  FormatCache& cache = FormatCache::instance();
  std::shared_ptr<const FormatSnapshot> snap = cache.find(cache_key);
  if (snap == nullptr) {
    auto fresh = std::make_shared<FormatSnapshot>();
    fresh->image = formatted_image(ciphered);
    snap = std::move(fresh);
    cache.insert(cache_key, snap);
  }
  // The DDR reads the snapshot's pages until it writes them.
  inner_->store().share(cfg_.protected_base, snap->image, snap);
  ic_.format_from(std::move(snap));

  // Formatting is init-time work (the bitstream/loader does it before the
  // system runs); keep the runtime statistics clean.
  cc_.reset_stats();
  ic_.reset_stats();
}

std::vector<std::uint8_t> LocalCipheringFirewall::formatted_image(
    bool ciphered) {
  // Zero lines, enciphered under version 1 — the version the format
  // advances every line of a pristine core to. Each block's keystream is
  // tweaked by its own address, so one pass over the region stores the same
  // bytes as one pass per line.
  std::vector<std::uint8_t> image(static_cast<std::size_t>(cfg_.protected_size), 0);
  if (ciphered) (void)cc_.encrypt(cfg_.protected_base, 1, image, image);
  return image;
}

sim::Cycle LocalCipheringFirewall::rotate_key(const crypto::Aes128Key& new_key) {
  ++stats_.key_rotations;
  const std::uint64_t lines = cfg_.protected_size / cfg_.line_bytes;
  std::vector<std::uint8_t> plain_image(
      static_cast<std::size_t>(cfg_.protected_size));

  sim::Cycle cost = 0;
  // Pass 1: decrypt the whole region under the old key at current versions.
  for (std::uint64_t i = 0; i < lines; ++i) {
    const sim::Addr line_addr = cfg_.protected_base + i * cfg_.line_bytes;
    std::vector<std::uint8_t> stored(cfg_.line_bytes);
    inner_->store().read(line_addr, std::span<std::uint8_t>(stored.data(), stored.size()));
    if (cm_ == ConfidentialityMode::kCipher) {
      cost += cc_.decrypt(line_addr, ic_.version_of(line_addr), stored, stored);
    }
    std::memcpy(plain_image.data() + i * cfg_.line_bytes, stored.data(),
                cfg_.line_bytes);
    cost += inner_->config().t_cas;  // raw line fetch estimate
  }

  // Re-key the CC (fresh derived nonce) and reset all versions to zero; the
  // per-line update loop below re-encrypts at version 1 and rebuilds every
  // leaf, leaving CC tweaks and IC tags in lockstep under the new key.
  cc_ = ConfidentialityCore(new_key, cc_config(cfg_, new_key));
  ic_.rebuild_from(plain_image);

  for (std::uint64_t i = 0; i < lines; ++i) {
    const sim::Addr line_addr = cfg_.protected_base + i * cfg_.line_bytes;
    std::vector<std::uint8_t> stored(cfg_.line_bytes);
    std::memcpy(stored.data(), plain_image.data() + i * cfg_.line_bytes,
                cfg_.line_bytes);
    if (cm_ == ConfidentialityMode::kCipher) {
      const std::uint32_t next_version = ic_.version_of(line_addr) + 1;
      cost += cc_.encrypt(line_addr, next_version, stored, stored);
    }
    const auto update = ic_.update_line(line_addr, stored);
    cost += update.cycles;
    inner_->store().write(line_addr,
                          std::span<const std::uint8_t>(stored.data(), stored.size()));
    cost += inner_->config().t_cas;
  }
  return cost;
}

void LocalCipheringFirewall::reset_stats() noexcept {
  stats_ = {};
  cc_.reset_stats();
  ic_.reset_stats();
}

void LocalCipheringFirewall::contribute_metrics(obs::Registry& reg,
                                                const std::string& prefix) const {
  reg.counter(prefix + ".passthrough", stats_.passthrough);
  reg.counter(prefix + ".protected_reads", stats_.protected_reads);
  reg.counter(prefix + ".protected_writes", stats_.protected_writes);
  reg.counter(prefix + ".lines_encrypted", stats_.lines_encrypted);
  reg.counter(prefix + ".lines_decrypted", stats_.lines_decrypted);
  reg.counter(prefix + ".read_modify_writes", stats_.read_modify_writes);
  reg.counter(prefix + ".integrity_failures", stats_.integrity_failures);
  reg.counter(prefix + ".key_rotations", stats_.key_rotations);
  reg.counter(prefix + ".cc.operations", cc_.stats().operations);
  reg.counter(prefix + ".cc.bytes", cc_.stats().bytes);
  reg.counter(prefix + ".cc.cycles_charged", cc_.stats().cycles_charged);
  reg.counter(prefix + ".ic.updates", ic_.stats().updates);
  reg.counter(prefix + ".ic.verifies", ic_.stats().verifies);
  reg.counter(prefix + ".ic.failures", ic_.stats().failures);
  reg.counter(prefix + ".ic.hash_invocations", ic_.stats().hash_invocations);
  reg.counter(prefix + ".ic.cycles_charged", ic_.stats().cycles_charged);
  reg.counter(prefix + ".ic.version_wraps", ic_.stats().version_wraps);
}

}  // namespace secbus::core
