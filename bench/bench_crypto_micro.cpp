// Crypto micro-benchmarks, per backend.
//
// Measures the primitives the simulator's hot path is made of — single AES
// block encryption, the batched tweaked-CTR line transform, SHA-256
// compression, and hash-tree bulk formatting — once per crypto backend
// (portable T-table, scalar reference, and accel when the CPU supports it).
//
// Writes bench/out/BENCH_crypto.json. Absolute MB/s numbers are
// machine-specific; the tracked baseline (bench/baselines/BENCH_crypto.json)
// is enforced in CI through the `ratios` object only, which travels across
// machines: the T-table path must stay well ahead of the scalar reference,
// and the accel path ahead of the T-table one, regardless of absolute clock.
//
// Usage: bench_crypto_micro [--quick]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

// xorshift64 so inputs are deterministic across runs and backends.
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

struct Rate {
  double ops_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

// Runs fn(iters) `repeats` times and keeps the fastest run (fn performs
// `iters` operations of `bytes_per_op` bytes each).
template <typename Fn>
Rate measure(std::size_t iters, std::size_t bytes_per_op, int repeats, Fn fn) {
  double best_sec = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn(iters);
    const auto t1 = Clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (sec < best_sec) best_sec = sec;
  }
  Rate rate;
  rate.ops_per_sec = static_cast<double>(iters) / best_sec;
  rate.mb_per_sec = rate.ops_per_sec *
                    static_cast<double>(bytes_per_op) / (1024.0 * 1024.0);
  return rate;
}

struct BackendRates {
  std::string name;
  Rate aes_block;     // 16-byte single-block encrypt
  Rate ctr_line;      // 64-byte batched tweaked-CTR line
  Rate sha_compress;  // SHA-256 compression through the streaming path
  Rate tree_format;   // per-leaf cost of a full-tree bulk rebuild
};

BackendRates run_backend(secbus::crypto::BackendKind kind, bool quick) {
  namespace crypto = secbus::crypto;
  const int repeats = quick ? 2 : 3;
  const std::size_t scale = quick ? 1 : 8;

  crypto::set_backend_for_testing(kind);
  const crypto::Backend& backend = crypto::active_backend();

  BackendRates out;
  out.name = crypto::to_string(kind);

  crypto::Aes128Key key{};
  for (auto& b : key) b = next_byte();
  crypto::Aes128 aes(key);
  aes.set_impl(backend.aes_impl);

  // AES single block.
  {
    std::uint8_t block[16];
    std::memcpy(block, random_bytes(16).data(), 16);
    out.aes_block = measure(100000 * scale, 16, repeats, [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) aes.encrypt_block(block, block);
    });
  }

  // Batched CTR line (the Confidentiality Core's per-access shape).
  {
    std::vector<std::uint8_t> line = random_bytes(64);
    out.ctr_line = measure(50000 * scale, 64, repeats, [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        crypto::memory_xcrypt_line(aes, 0x5ecb, 0x1000 + 64 * (i % 512), 7,
                                   line, line);
      }
    });
  }

  // SHA-256 compression: stream 4KB buffers so the cost is the compression
  // function, not finalization padding.
  {
    std::vector<std::uint8_t> buf = random_bytes(4096);
    out.sha_compress =
        measure(1000 * scale, 4096, repeats, [&](std::size_t n) {
          crypto::Sha256 ctx;
          ctx.set_impl(backend.sha_impl);
          for (std::size_t i = 0; i < n; ++i) ctx.update(buf);
          const auto digest = ctx.finalize();
          buf[0] ^= digest[0];  // keep the work observable
        });
    out.sha_compress.ops_per_sec *= 4096.0 / 64.0;  // report per 64B block
  }

  // Hash-tree bulk format: full rebuild of a small protected region (the
  // contexts inside HashTree inherit the backend set above).
  {
    crypto::HashTree::Config cfg;
    cfg.leaf_count = 256;
    cfg.block_bytes = 64;
    cfg.base_addr = 0x8000;
    crypto::HashTree tree(cfg);
    std::vector<std::uint8_t> image =
        random_bytes(cfg.leaf_count * cfg.block_bytes);
    std::vector<std::uint32_t> versions(cfg.leaf_count, 1);
    const Rate per_rebuild =
        measure(20 * scale, cfg.leaf_count * cfg.block_bytes, repeats,
                [&](std::size_t n) {
                  for (std::size_t i = 0; i < n; ++i) {
                    tree.rebuild(image, versions);
                  }
                });
    out.tree_format.ops_per_sec =
        per_rebuild.ops_per_sec * static_cast<double>(cfg.leaf_count);
    out.tree_format.mb_per_sec = per_rebuild.mb_per_sec;
  }

  return out;
}

void emit_backend(std::FILE* f, const BackendRates& r, bool last) {
  std::fprintf(f,
               "    {\"backend\": \"%s\", \"aes_block_mb_s\": %.1f, "
               "\"ctr_line_mb_s\": %.1f, \"sha256_mb_s\": %.1f, "
               "\"sha256_blocks_per_s\": %.0f, "
               "\"tree_format_leaves_per_s\": %.0f, "
               "\"tree_format_mb_s\": %.1f}%s\n",
               r.name.c_str(), r.aes_block.mb_per_sec, r.ctr_line.mb_per_sec,
               r.sha_compress.mb_per_sec, r.sha_compress.ops_per_sec,
               r.tree_format.ops_per_sec, r.tree_format.mb_per_sec,
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  namespace crypto = secbus::crypto;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  std::fputs(crypto::backend_report().c_str(), stdout);

  const crypto::Backend accel_backend =
      crypto::resolve_backend(crypto::BackendKind::kAccel);
  const bool accel_aes = accel_backend.aes_impl == crypto::AesImpl::kAesni;
  const bool accel_sha = accel_backend.sha_impl == crypto::ShaImpl::kShaNi;

  std::vector<BackendRates> rows;
  rows.push_back(run_backend(crypto::BackendKind::kScalar, quick));
  rows.push_back(run_backend(crypto::BackendKind::kPortable, quick));
  if (accel_aes || accel_sha) {
    rows.push_back(run_backend(crypto::BackendKind::kAccel, quick));
  }

  const BackendRates& scalar = rows[0];
  const BackendRates& portable = rows[1];

  const std::string path = secbus::benchio::out_path("BENCH_crypto.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_crypto_micro: fopen");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"crypto_micro\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"accel_aes\": %s,\n", accel_aes ? "true" : "false");
  std::fprintf(f, "  \"accel_sha\": %s,\n", accel_sha ? "true" : "false");
  std::fprintf(f, "  \"backends\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    emit_backend(f, rows[i], i + 1 == rows.size());
  }
  std::fprintf(f, "  ],\n");
  // Ratios are the machine-portable contract: fast paths must stay fast
  // relative to the references on any hardware.
  std::fprintf(f, "  \"ratios\": {\n");
  std::fprintf(f, "    \"aes_ttable_vs_scalar\": %.2f,\n",
               portable.aes_block.mb_per_sec / scalar.aes_block.mb_per_sec);
  std::fprintf(f, "    \"ctr_ttable_vs_scalar\": %.2f",
               portable.ctr_line.mb_per_sec / scalar.ctr_line.mb_per_sec);
  if (rows.size() == 3) {
    const BackendRates& accel = rows[2];
    if (accel_aes) {
      std::fprintf(f, ",\n    \"aes_accel_vs_ttable\": %.2f",
                   accel.aes_block.mb_per_sec / portable.aes_block.mb_per_sec);
      std::fprintf(f, ",\n    \"ctr_accel_vs_ttable\": %.2f",
                   accel.ctr_line.mb_per_sec / portable.ctr_line.mb_per_sec);
    }
    if (accel_sha) {
      std::fprintf(
          f, ",\n    \"sha_accel_vs_portable\": %.2f",
          accel.sha_compress.mb_per_sec / portable.sha_compress.mb_per_sec);
      std::fprintf(
          f, ",\n    \"tree_accel_vs_portable\": %.2f",
          accel.tree_format.mb_per_sec / portable.tree_format.mb_per_sec);
    }
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);

  for (const BackendRates& r : rows) {
    std::printf(
        "%-8s  aes %8.1f MB/s  ctr %8.1f MB/s  sha %8.1f MB/s  "
        "tree %8.0f leaves/s\n",
        r.name.c_str(), r.aes_block.mb_per_sec, r.ctr_line.mb_per_sec,
        r.sha_compress.mb_per_sec, r.tree_format.ops_per_sec);
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
