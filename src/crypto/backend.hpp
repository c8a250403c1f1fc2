// The crypto datapath selection.
//
// The simulator's crypto substrate (AES-128, SHA-256) has several datapaths
// per primitive, all producing bit-identical blocks and digests:
//   * AES: AES-NI rounds, 32-bit T-table rounds, or the byte-wise FIPS-197
//     textbook rounds (the readable reference);
//   * SHA-256: SHA-NI compression or the portable scalar rounds.
// The hardware datapaths live in one dedicated TU compiled with the
// -maes/-msha instruction-set flags (the rest of the binary stays plain, so
// it still runs on hardware without the extensions).
//
// datapaths() is the one selection: chosen once per process from CPUID, it
// holds the fastest datapath this build and CPU support per primitive
// (AES-NI else T-table; SHA-NI else portable). The only other way to pick a
// datapath is set_datapaths_for_testing(). Since every datapath gives the
// same bytes, the choice changes host time only; crypto_test_backend_diff
// checks that over whole simulations for every supported datapath pair.
#pragma once

#include <cstdint>
#include <string>

namespace secbus::crypto {

enum class AesImpl : std::uint8_t { kTTable, kScalar, kAesni };
enum class ShaImpl : std::uint8_t { kPortable, kShaNi };

// x86 feature bits relevant to the accel paths, detected once via CPUID.
// All false on non-x86 builds.
struct CpuFeatures {
  bool aesni = false;   // AES-NI (CPUID.1:ECX.AES)
  bool ssse3 = false;
  bool sse41 = false;
  bool sha_ni = false;  // SHA extensions (CPUID.7:EBX.SHA)
  static const CpuFeatures& detect() noexcept;
};

// One datapath per primitive. Contexts (Aes128, Sha256) capture the
// selection at construction; one-shot digests read it per call.
struct Datapaths {
  AesImpl aes = AesImpl::kTTable;
  ShaImpl sha = ShaImpl::kPortable;
  bool operator==(const Datapaths&) const = default;
};

// The process-wide selection (from CPUID on first use, then immutable
// except through the test hook below).
[[nodiscard]] const Datapaths& datapaths() noexcept;

// Test hook: replaces the selection for this process. New contexts pick up
// the change; existing contexts keep the datapath they captured. Selecting
// a datapath the host cannot run is the caller's bug (check
// aes_impl_supported / sha_impl_supported first). Not thread-safe.
void set_datapaths_for_testing(Datapaths selection) noexcept;

// Whether a given datapath can execute on this build + CPU.
[[nodiscard]] bool aes_impl_supported(AesImpl impl) noexcept;
[[nodiscard]] bool sha_impl_supported(ShaImpl impl) noexcept;

[[nodiscard]] const char* to_string(AesImpl impl) noexcept;
[[nodiscard]] const char* to_string(ShaImpl impl) noexcept;
// "<aes>+<sha>", e.g. "aes-ni+sha-ni" (the fleet hello's `backend` field).
[[nodiscard]] std::string to_string(const Datapaths& selection);

// Human-readable report of the detected features and the selection
// (secbus_cli crypto-info; CI logs it so every run records which datapaths
// it exercised).
[[nodiscard]] std::string datapath_report();

// Entry points of the accelerated TU (crypto/accel_x86.cpp). They exist on
// every platform so the dispatch layer always links; calling one when
// compiled() is false or the CPU lacks the extension aborts, so only the
// dispatch layer (which checks support) may call them.
namespace accel {

// True when the TU was built with the x86 crypto instruction-set flags.
[[nodiscard]] bool compiled() noexcept;

// AES-128 over the FIPS-197 byte-form key schedule (11 x 16 bytes).
// Pipelines 4 independent blocks per iteration; in/out may alias only
// exactly (same pointer), not overlap.
void aes_encrypt_blocks(const std::uint8_t* round_keys, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t nblocks) noexcept;

// SHA-256 compression of `nblocks` consecutive 64-byte blocks into `state`
// (host-order words, same convention as the portable path).
void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept;

}  // namespace accel

}  // namespace secbus::crypto
