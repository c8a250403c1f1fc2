// Hardware-accelerated AES/SHA primitives (x86 AES-NI + SHA extensions).
//
// This is the only TU compiled with -maes/-mssse3/-msse4.1/-msha
// (CMake sets SECBUS_ACCEL_X86 alongside them), so the rest of the binary
// contains no extended instructions and still runs on plain hardware; the
// dispatch layer (crypto/backend.cpp) checks CPUID before routing here.
// Without the flags (non-x86 targets, or a compiler missing -msha) the TU
// degrades to abort() stubs that compiled() reports as absent, so the
// portable datapaths are selected and these are never reached.
//
// Correctness contract: bit-identical output to the portable T-table /
// scalar paths for every input — enforced by crypto_test_backend_diff and
// the per-datapath FIPS/NIST and line known-answer suites, not assumed.
#include "crypto/backend.hpp"

#include <cstdlib>

#ifdef SECBUS_ACCEL_X86

#include <immintrin.h>

namespace secbus::crypto::accel {

bool compiled() noexcept { return true; }

namespace {

inline __m128i load_rk(const std::uint8_t* keys, int round) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys) + round);
}

inline __m128i load_block(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store_block(std::uint8_t* p, __m128i v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

}  // namespace

void aes_encrypt_blocks(const std::uint8_t* round_keys, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t nblocks) noexcept {
  __m128i rk[11];
  for (int r = 0; r <= 10; ++r) rk[r] = load_rk(round_keys, r);
  std::size_t i = 0;
  // Four independent blocks per iteration: aesenc has multi-cycle latency
  // but pipelines one per cycle, so interleaving hides it (this is what
  // makes batched line keystream generation fast).
  for (; i + 4 <= nblocks; i += 4) {
    __m128i b0 = _mm_xor_si128(load_block(in + 16 * i), rk[0]);
    __m128i b1 = _mm_xor_si128(load_block(in + 16 * (i + 1)), rk[0]);
    __m128i b2 = _mm_xor_si128(load_block(in + 16 * (i + 2)), rk[0]);
    __m128i b3 = _mm_xor_si128(load_block(in + 16 * (i + 3)), rk[0]);
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
    }
    store_block(out + 16 * i, _mm_aesenclast_si128(b0, rk[10]));
    store_block(out + 16 * (i + 1), _mm_aesenclast_si128(b1, rk[10]));
    store_block(out + 16 * (i + 2), _mm_aesenclast_si128(b2, rk[10]));
    store_block(out + 16 * (i + 3), _mm_aesenclast_si128(b3, rk[10]));
  }
  for (; i < nblocks; ++i) {
    __m128i b = _mm_xor_si128(load_block(in + 16 * i), rk[0]);
    for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk[r]);
    store_block(out + 16 * i, _mm_aesenclast_si128(b, rk[10]));
  }
}

namespace {

// FIPS 180-4 round constants in schedule order; lane i of K[g] is the
// constant for round 4g+i.
alignas(16) constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept {
  // Byte shuffle turning the big-endian input stream into host-order lanes
  // (each dword byte-reversed, dword order kept).
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Repack {a..h} into the sha256rnds2 register convention.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint8_t* block = blocks + 64 * b;
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i msgs[4];
    // Rounds 0..15 consume the (byte-swapped) block directly; rounds 16..63
    // recompute each four-word schedule chunk in place via sha256msg1/2.
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        msgs[g] = _mm_shuffle_epi8(load_block(block + 16 * g), kByteSwap);
      } else {
        msgs[g % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(
                _mm_sha256msg1_epu32(msgs[g % 4], msgs[(g + 1) % 4]),
                _mm_alignr_epi8(msgs[(g + 3) % 4], msgs[(g + 2) % 4], 4)),
            msgs[(g + 3) % 4]);
      }
      __m128i wk = _mm_add_epi32(
          msgs[g % 4],
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  // Unpack ABEF/CDGH back to {a..h}.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);       // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);          // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

}  // namespace secbus::crypto::accel

#else  // !SECBUS_ACCEL_X86

namespace secbus::crypto::accel {

// Built without the x86 crypto instruction-set flags: the dispatch layer
// reports the accel paths unsupported and never calls these.
bool compiled() noexcept { return false; }

void aes_encrypt_blocks(const std::uint8_t*, const std::uint8_t*,
                        std::uint8_t*, std::size_t) noexcept {
  std::abort();
}

void sha256_compress(std::uint32_t*, const std::uint8_t*,
                     std::size_t) noexcept {
  std::abort();
}

}  // namespace secbus::crypto::accel

#endif  // SECBUS_ACCEL_X86
