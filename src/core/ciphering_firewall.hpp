// Local Ciphering Firewall (LCF) — Section IV.B.2 and Figure 1.
//
// "Local Ciphering Firewall monitors the exchanges between internal IPs and
// the external memory. The main feature of LCF is the protection of the
// external memory in terms of confidentiality and integrity."
//
// The LCF is a Local Firewall on the external-memory interface that adds a
// ciphering datapath. The Local Firewall part is a core::SlaveFirewall
// (named "lcf_ddr" in a SoC): it runs the SB rule check, discards denied
// accesses and raises every alert, including the integrity alert when this
// datapath answers kIntegrityError. This class is the datapath it decorates,
// in front of the external DDR:
//   * the Confidentiality Core (AES-128, tweaked CTR),
//   * the Integrity Core (hash tree + per-line time-stamp tags),
//   * read-modify-write assembly of partial-line writes.
//
// Protection level comes from the LCF's Security Policy (CM / IM / CK
// parameters, Section IV.A). Three configurations matter for the threat
// model (Section III.B):
//   CM=bypass, IM=bypass   unprotected region — attacker tampering succeeds
//                          (the paper's "non sensitive part");
//   CM=cipher, IM=bypass   cipher-only — contents are secret but random
//                          tampering is NOT detected (the paper's DoS case);
//   CM=cipher, IM=hash     full protection — spoofing, relocation and
//                          replay are all detected on the next read.
//
// Timing: every protected access pays raw DDR line transfers plus CC/IC
// costs (the firewall in front adds the SB rule check); the bus is held
// throughout, which is what makes external traffic expensive relative to
// BRAM traffic (Section V). The firewall hands an access over at its request
// cycle, which stamps the datapath's DDR accesses and trace events.
#pragma once

#include <string>
#include <vector>

#include "bus/ports.hpp"
#include "core/config_memory.hpp"
#include "core/confidentiality_core.hpp"
#include "core/integrity_core.hpp"
#include "mem/ddr.hpp"
#include "sim/trace.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::core {

class LocalCipheringFirewall final : public bus::SlaveDevice {
 public:
  struct Config {
    sim::Addr protected_base = 0;
    std::uint64_t protected_size = 0;  // line_bytes * power-of-two
    std::uint64_t line_bytes = 32;
    sim::Cycle cc_latency = 11;    // Table II
    double cc_bits_per_cycle = 4.5;
    sim::Cycle ic_latency = 20;    // Table II
    double ic_bits_per_cycle = 1.31;
  };

  struct Stats {
    std::uint64_t passthrough = 0;     // accesses outside the protected range
    std::uint64_t protected_reads = 0;
    std::uint64_t protected_writes = 0;
    std::uint64_t lines_encrypted = 0;
    std::uint64_t lines_decrypted = 0;
    std::uint64_t read_modify_writes = 0;
    std::uint64_t integrity_failures = 0;
    std::uint64_t key_rotations = 0;
  };

  // `config_mem` holds the policy installed under `id`; its CM, IM and CK
  // select the protection (the rules are the firewall's business).
  LocalCipheringFirewall(std::string name, FirewallId id,
                         ConfigurationMemory& config_mem, mem::DdrMemory& inner,
                         Config cfg);

  bus::AccessResult access(bus::BusTransaction& t, sim::Cycle now) override;
  [[nodiscard]] std::string_view slave_name() const override { return name_; }

  void set_trace(sim::EventTrace* trace) noexcept { trace_ = trace; }

  // Writes encrypted zero lines over the whole protected region and
  // advances every line's version, so subsequent plaintext reads return
  // zeros. The tree over the new image is a lazy one, whatever the policy:
  // it hashes a line only once the line is written, or read after a write
  // or tampering.
  // Init-time operation, once per LCF and before any protected access (the
  // IC asserts it is pristine); charges no simulated cycles.
  void format_protected_region();

  // Key rotation (reconfiguration of security services, Section VI):
  // decrypts the protected region under the old key, re-encrypts under
  // `new_key`, resets versions and rebuilds the tree. Returns the cycle cost
  // a hardware LCF would spend doing it, so callers can charge downtime.
  sim::Cycle rotate_key(const crypto::Aes128Key& new_key);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ConfidentialityCore& cc() const noexcept { return cc_; }
  [[nodiscard]] const IntegrityCore& ic() const noexcept { return ic_; }
  [[nodiscard]] FirewallId id() const noexcept { return id_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // Effective modes (from the installed policy, refreshed on reconfig).
  [[nodiscard]] ConfidentialityMode cm() const noexcept { return cm_; }
  [[nodiscard]] IntegrityMode im() const noexcept { return im_; }

  // Zeroes the LCF's protection statistics and the CC/IC core counters.
  // The key, versions, tree and cached policy modes are untouched — this
  // resets accounting, not security state.
  void reset_stats() noexcept;

  // Publishes protection counters under `prefix` and the crypto cores under
  // "<prefix>.cc." / "<prefix>.ic.".
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  [[nodiscard]] bool in_protected_range(sim::Addr addr, std::uint64_t len) const noexcept;
  void refresh_policy_cache();
  // The stored form of an all-zero protected region (see
  // format_protected_region); charges the CC, whose stats the format resets.
  [[nodiscard]] std::vector<std::uint8_t> formatted_image(bool ciphered);

  struct LineOp {
    sim::Cycle cycles = 0;
    bool ok = true;
  };
  // One protected line through the CC/IC; the raw line moves over the
  // DDR's line port.
  LineOp read_protected_line(sim::Addr line_addr, std::span<std::uint8_t> plain,
                             sim::Cycle now);
  LineOp write_protected_line(sim::Addr line_addr,
                              std::span<const std::uint8_t> plain, sim::Cycle now);

  std::string name_;
  FirewallId id_;
  Config cfg_;
  ConfigurationMemory* config_mem_;
  mem::DdrMemory* inner_;
  sim::EventTrace* trace_ = nullptr;

  ConfidentialityCore cc_;
  IntegrityCore ic_;
  // Line-sized scratch buffers reused across accesses (sized once at
  // construction) so the per-access protected path never allocates.
  std::vector<std::uint8_t> scratch_stored_;  // raw line image (read path)
  std::vector<std::uint8_t> scratch_plain_;   // assembled plaintext line
  std::vector<std::uint8_t> scratch_write_;   // ciphertext being written
  ConfidentialityMode cm_ = ConfidentialityMode::kBypass;
  IntegrityMode im_ = IntegrityMode::kBypass;
  std::uint64_t policy_generation_ = 0;

  Stats stats_;
};

}  // namespace secbus::core
