// SoC configuration: everything needed to build the case-study system
// (Section V: 3 MicroBlaze processors, one internal BRAM memory, one
// external DDR memory, one dedicated IP) in any of its security variants.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace secbus::soc {

// Where security checks live.
enum class SecurityMode : std::uint8_t {
  kNone,         // raw system, no protection (Table I "w/o firewalls")
  kDistributed,  // the paper's contribution: LF per IP + LCF on ext. memory
  kCentralized,  // SECA-like baseline: one shared enforcement module
};

[[nodiscard]] const char* to_string(SecurityMode mode) noexcept;

// Accepts the to_string() name; false on anything else.
[[nodiscard]] bool parse_security_mode(std::string_view text,
                                       SecurityMode& out) noexcept;

// External-memory protection level (the LCF's CM/IM policy parameters).
enum class ProtectionLevel : std::uint8_t {
  kPlaintext,   // CM=bypass, IM=bypass (the paper's unprotected memory)
  kCipherOnly,  // CM=cipher, IM=bypass (the paper's "only ciphered" case)
  kFull,        // CM=cipher, IM=hash tree (+ time stamps)
};

[[nodiscard]] const char* to_string(ProtectionLevel level) noexcept;

// Accepts both the to_string() names ("plaintext", "cipher-only",
// "cipher+integrity") and the CLI short forms ("cipher", "full").
[[nodiscard]] bool parse_protection_level(std::string_view text,
                                          ProtectionLevel& out) noexcept;

// Shape of the interconnect fabric the SoC is built on.
enum class TopologyKind : std::uint8_t {
  kFlat,  // one shared bus segment (the paper's case-study interconnect)
  kStar,  // memory hub segment + N CPU leaf segments
  kMesh,  // rows x cols grid of segments, memories at grid corner 0
};

[[nodiscard]] const char* to_string(TopologyKind kind) noexcept;

// Declarative interconnect description resolved by the Soc into a
// bus::Fabric (segment graph + bridge latencies) and a placement: memories
// and the dedicated IP live on segment 0, processors spread round-robin
// over the CPU-bearing segments, and each master's Local Firewall sits on
// its master's segment.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kFlat;
  std::size_t star_leaves = 4;  // kStar: leaf segments around the hub
  std::size_t mesh_rows = 2;    // kMesh grid shape
  std::size_t mesh_cols = 2;
  sim::Cycle hop_latency = 2;   // per-bridge segment-crossing cost

  [[nodiscard]] static TopologySpec flat() { return TopologySpec{}; }
  [[nodiscard]] static TopologySpec star(std::size_t leaves,
                                         sim::Cycle hop_latency = 2) {
    TopologySpec spec;
    spec.kind = TopologyKind::kStar;
    spec.star_leaves = leaves;
    spec.hop_latency = hop_latency;
    return spec;
  }
  [[nodiscard]] static TopologySpec mesh(std::size_t rows, std::size_t cols,
                                         sim::Cycle hop_latency = 2) {
    TopologySpec spec;
    spec.kind = TopologyKind::kMesh;
    spec.mesh_rows = rows;
    spec.mesh_cols = cols;
    spec.hop_latency = hop_latency;
    return spec;
  }

  [[nodiscard]] std::size_t segment_count() const noexcept {
    switch (kind) {
      case TopologyKind::kFlat: return 1;
      case TopologyKind::kStar: return 1 + star_leaves;
      case TopologyKind::kMesh: return mesh_rows * mesh_cols;
    }
    return 1;
  }

  // Stable axis label for sweeps/reports: "flat", "star4", "mesh2x2", ...
  [[nodiscard]] std::string label() const;

  bool operator==(const TopologySpec&) const = default;
};

// Inverse of TopologySpec::label(): "flat" | "star<leaves>" |
// "mesh<rows>x<cols>" (e.g. star4, mesh2x2); segment counts are capped at
// 64. `hop_latency` keeps its default; false on anything else.
[[nodiscard]] bool parse_topology(std::string_view text,
                                  TopologySpec& out) noexcept;

struct SocConfig {
  // Sentinel for the placement fields below: "derive from the other
  // placement choices" instead of a fixed segment index.
  static constexpr std::size_t kAutoSegment = static_cast<std::size_t>(-1);

  // --- structure ------------------------------------------------------
  std::size_t processors = 3;
  TopologySpec topology;  // interconnect fabric shape (default: flat bus)
  bool dedicated_ip = true;  // the DMA engine
  // Default home fabric segment of the memories and their slave-side
  // protection (the historical anchor was segment 0). Must be
  // < segment_count().
  std::size_t memory_segment = 0;
  // Per-memory placement overrides: the secure on-chip BRAM (plus its slave
  // firewall) and the open external DDR (plus the LCF) can live on
  // *different* fabric segments; kAutoSegment keeps each on
  // memory_segment. The DDR's segment is the anchor for "farthest from the
  // memories" attack placement and the reported fabric diameter, since the
  // protected external memory is the threat model's target.
  std::size_t bram_segment = kAutoSegment;
  std::size_t ddr_segment = kAutoSegment;
  // Home segment of the dedicated IP; kAutoSegment follows memory_segment.
  std::size_t dma_segment = kAutoSegment;
  SecurityMode security = SecurityMode::kDistributed;
  ProtectionLevel protection = ProtectionLevel::kFull;
  bool enable_reconfig = false;  // alert-driven policy lockdown responder
  std::size_t trace_capacity = 0;

  // --- memory map -------------------------------------------------------
  sim::Addr bram_base = 0x0000'0000;
  std::uint64_t bram_size = 128 * 1024;
  sim::Addr ddr_base = 0x8000'0000;
  std::uint64_t ddr_size = 1024 * 1024;
  // Protected window inside the DDR (must be line_bytes * power-of-two).
  sim::Addr ddr_protected_base = 0x8000'0000;
  std::uint64_t ddr_protected_size = 256 * 1024;
  std::uint64_t line_bytes = 32;

  // --- timing -------------------------------------------------------------
  sim::ClockDomain clock{100e6};  // ML605 bus clock
  sim::Cycle sb_check_cycles = 12;   // Table II
  sim::Cycle cc_latency = 11;        // Table II
  double cc_bits_per_cycle = 4.5;    // 450 Mb/s @ 100 MHz
  sim::Cycle ic_latency = 20;        // Table II
  double ic_bits_per_cycle = 1.31;   // 131 Mb/s @ 100 MHz

  // --- workload ------------------------------------------------------------
  std::uint64_t seed = 42;
  std::uint64_t transactions_per_cpu = 300;
  double write_fraction = 0.4;
  // Fraction of each processor's accesses that target the external memory
  // (Section V: the internal/external mix drives protection overhead).
  double external_fraction = 0.3;
  // Compute gap between accesses (computation:communication ratio).
  sim::Cycle compute_min = 4;
  sim::Cycle compute_max = 12;
  std::uint16_t max_burst_beats = 4;

  // --- policy shape ---------------------------------------------------------
  // Extra dummy segment rules added to every firewall's policy on top of the
  // functional ones (drives the policy-aggressiveness ablation).
  std::size_t extra_rules = 0;

  bool operator==(const SocConfig&) const = default;
};

}  // namespace secbus::soc
