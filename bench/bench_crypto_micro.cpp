// Crypto micro-benchmarks, per datapath pair.
//
// Measures the primitives the simulator's hot path is made of — single AES
// block encryption, the batched tweaked-CTR line transform, SHA-256
// compression, and hash-tree bulk formatting — on the scalar FIPS-197
// reference, the portable T-table datapath and, when the CPU has AES-NI or
// SHA-NI, the hardware datapaths CPUID selects. The rows alternate over
// several rounds (6 with --quick, else 8) and each keeps its fastest pass.
//
// Writes bench/out/BENCH_crypto.json. Absolute MB/s numbers are
// machine-specific; the tracked baseline (bench/baselines/BENCH_crypto.json)
// is enforced in CI through the `ratios` object only, which travels across
// machines: the T-table path must stay well ahead of the scalar reference,
// and the accel path ahead of the T-table one, regardless of absolute clock.
//
// Usage: bench_crypto_micro [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_output.hpp"
#include "crypto/aes128.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/backend.hpp"
#include "crypto/hash_tree.hpp"
#include "crypto/sha256.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// xorshift64 so inputs are deterministic across runs.
std::uint64_t g_rng = 0x5ecb5ecb5ecb5ecbULL;
std::uint8_t next_byte() {
  g_rng ^= g_rng << 13;
  g_rng ^= g_rng >> 7;
  g_rng ^= g_rng << 17;
  return static_cast<std::uint8_t>(g_rng);
}

std::vector<std::uint8_t> random_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = next_byte();
  return v;
}

secbus::crypto::Aes128Key random_key() {
  secbus::crypto::Aes128Key key;
  for (auto& b : key) b = next_byte();
  return key;
}

constexpr double kMiB = 1024.0 * 1024.0;

// The inputs every datapath row runs on, drawn once.
struct Workload {
  std::size_t scale = 1;
  secbus::crypto::Aes128Key key = random_key();
  std::vector<std::uint8_t> block = random_bytes(16);
  std::vector<std::uint8_t> line = random_bytes(64);
  std::vector<std::uint8_t> sha_buf = random_bytes(4096);
  secbus::crypto::HashTree::Config tree_cfg{
      .leaf_count = 256, .block_bytes = 64, .base_addr = 0x8000};
  std::vector<std::uint8_t> image =
      random_bytes(tree_cfg.leaf_count * tree_cfg.block_bytes);
  std::vector<std::uint32_t> versions =
      std::vector<std::uint32_t>(tree_cfg.leaf_count, 1);
  // Operations per timed pass.
  std::size_t aes_blocks() const { return 100000 * scale; }
  std::size_t ctr_lines() const { return 50000 * scale; }
  std::size_t sha_buffers() const { return 1000 * scale; }
  std::size_t tree_rebuilds() const { return 20 * scale; }
};

// Seconds for one pass of each primitive.
struct Pass {
  double aes_block = 1e300;     // 16-byte single-block encrypt
  double ctr_line = 1e300;      // 64-byte batched tweaked-CTR line
  double sha_compress = 1e300;  // SHA-256 over 4 KiB streamed buffers
  double tree_format = 1e300;   // full-tree bulk rebuild

  void keep_best(const Pass& p) {
    aes_block = std::min(aes_block, p.aes_block);
    ctr_line = std::min(ctr_line, p.ctr_line);
    sha_compress = std::min(sha_compress, p.sha_compress);
    tree_format = std::min(tree_format, p.tree_format);
  }
};

template <typename Fn>
double seconds(Fn fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Times each primitive once on the datapaths selected now: the contexts are
// built here, so they capture the current selection.
Pass time_pass(Workload& w) {
  namespace crypto = secbus::crypto;
  Pass p;
  const crypto::Aes128 aes(w.key);

  p.aes_block = seconds([&] {
    for (std::size_t i = 0; i < w.aes_blocks(); ++i) {
      aes.encrypt_block(w.block.data(), w.block.data());
    }
  });

  // Batched CTR line (the Confidentiality Core's per-access shape).
  p.ctr_line = seconds([&] {
    for (std::size_t i = 0; i < w.ctr_lines(); ++i) {
      crypto::memory_xcrypt_line(aes, 0x5ecb, 0x1000 + 64 * (i % 512), 7,
                                 w.line, w.line);
    }
  });

  // SHA-256 compression: stream 4KB buffers so the cost is the compression
  // function, not finalization padding.
  p.sha_compress = seconds([&] {
    crypto::Sha256 ctx;
    for (std::size_t i = 0; i < w.sha_buffers(); ++i) ctx.update(w.sha_buf);
    const auto digest = ctx.finalize();
    w.sha_buf[0] ^= digest[0];  // keep the work observable
  });

  // Hash-tree bulk format of a small protected region.
  crypto::HashTree tree(w.tree_cfg);
  p.tree_format = seconds([&] {
    for (std::size_t i = 0; i < w.tree_rebuilds(); ++i) {
      tree.rebuild(w.image, w.versions);
    }
  });
  return p;
}

struct Row {
  secbus::crypto::Datapaths datapaths;
  Pass best;
};

// MB/s and ops/s of one row, from its best pass.
struct Rates {
  double aes_mb_s, ctr_mb_s, sha_mb_s, sha_blocks_per_s, tree_leaves_per_s,
      tree_mb_s;
};

Rates rates(const Row& row, const Workload& w) {
  const Pass& b = row.best;
  const double sha_bytes =
      static_cast<double>(w.sha_buffers() * w.sha_buf.size());
  const double leaves =
      static_cast<double>(w.tree_rebuilds() * w.tree_cfg.leaf_count);
  return {
      static_cast<double>(w.aes_blocks() * w.block.size()) / kMiB /
          b.aes_block,
      static_cast<double>(w.ctr_lines() * w.line.size()) / kMiB / b.ctr_line,
      sha_bytes / kMiB / b.sha_compress,
      sha_bytes / secbus::crypto::kSha256BlockBytes / b.sha_compress,
      leaves / b.tree_format,
      leaves * static_cast<double>(w.tree_cfg.block_bytes) / kMiB /
          b.tree_format,
  };
}

}  // namespace

int main(int argc, char** argv) {
  namespace crypto = secbus::crypto;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  std::fputs(crypto::datapath_report().c_str(), stdout);

  // Rows: the scalar reference, the portable T-table datapath and, when
  // CPUID selected a hardware datapath, that selection.
  const crypto::Datapaths cpuid = crypto::datapaths();
  const crypto::Datapaths portable{crypto::AesImpl::kTTable,
                                   crypto::ShaImpl::kPortable};
  const bool accel_aes = cpuid.aes == crypto::AesImpl::kAesni;
  const bool accel_sha = cpuid.sha == crypto::ShaImpl::kShaNi;
  const crypto::Datapaths reference{crypto::AesImpl::kScalar,
                                    crypto::ShaImpl::kPortable};
  std::vector<Row> rows{{reference, {}}, {portable, {}}};
  if (cpuid != portable) rows.push_back({cpuid, {}});

  // The rows run in alternating rounds and each keeps its fastest pass, so
  // a slow stretch of the host hits every row alike instead of one row's
  // whole measurement.
  Workload w;
  w.scale = quick ? 1 : 8;
  const int rounds = quick ? 6 : 8;
  for (int r = 0; r < rounds; ++r) {
    for (Row& row : rows) {
      crypto::set_datapaths_for_testing(row.datapaths);
      row.best.keep_best(time_pass(w));
    }
  }
  crypto::set_datapaths_for_testing(cpuid);

  std::vector<Rates> rs;
  for (const Row& row : rows) rs.push_back(rates(row, w));

  const std::string path = secbus::benchio::out_path("BENCH_crypto.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_crypto_micro: fopen");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"crypto_micro\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"rounds\": %d,\n", rounds);
  std::fprintf(f, "  \"accel_aes\": %s,\n", accel_aes ? "true" : "false");
  std::fprintf(f, "  \"accel_sha\": %s,\n", accel_sha ? "true" : "false");
  std::fprintf(f, "  \"datapaths\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Rates& r = rs[i];
    std::fprintf(f,
                 "    {\"datapaths\": \"%s\", \"aes_block_mb_s\": %.1f, "
                 "\"ctr_line_mb_s\": %.1f, \"sha256_mb_s\": %.1f, "
                 "\"sha256_blocks_per_s\": %.0f, "
                 "\"tree_format_leaves_per_s\": %.0f, "
                 "\"tree_format_mb_s\": %.1f}%s\n",
                 crypto::to_string(rows[i].datapaths).c_str(), r.aes_mb_s,
                 r.ctr_mb_s, r.sha_mb_s, r.sha_blocks_per_s,
                 r.tree_leaves_per_s, r.tree_mb_s,
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  // Ratios are the machine-portable contract: fast paths must stay fast
  // relative to the references on any hardware.
  const Rates& scalar = rs[0];
  const Rates& ttable = rs[1];
  std::fprintf(f, "  \"ratios\": {\n");
  std::fprintf(f, "    \"aes_ttable_vs_scalar\": %.2f,\n",
               ttable.aes_mb_s / scalar.aes_mb_s);
  std::fprintf(f, "    \"ctr_ttable_vs_scalar\": %.2f",
               ttable.ctr_mb_s / scalar.ctr_mb_s);
  if (accel_aes) {
    const Rates& accel = rs[2];
    std::fprintf(f, ",\n    \"aes_accel_vs_ttable\": %.2f",
                 accel.aes_mb_s / ttable.aes_mb_s);
    std::fprintf(f, ",\n    \"ctr_accel_vs_ttable\": %.2f",
                 accel.ctr_mb_s / ttable.ctr_mb_s);
  }
  if (accel_sha) {
    const Rates& accel = rs[2];
    std::fprintf(f, ",\n    \"sha_accel_vs_portable\": %.2f",
                 accel.sha_mb_s / ttable.sha_mb_s);
    std::fprintf(f, ",\n    \"tree_accel_vs_portable\": %.2f",
                 accel.tree_mb_s / ttable.tree_mb_s);
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Rates& r = rs[i];
    std::printf(
        "%-16s  aes %8.1f MB/s  ctr %8.1f MB/s  sha %8.1f MB/s  "
        "tree %8.0f leaves/s\n",
        crypto::to_string(rows[i].datapaths).c_str(), r.aes_mb_s, r.ctr_mb_s,
        r.sha_mb_s, r.tree_leaves_per_s);
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
