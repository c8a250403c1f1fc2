// Differential fuzz across the crypto backends: seeded-random keys, nonces,
// versions, lengths and alignments cross-check the accel (AES-NI/SHA-NI),
// T-table and scalar datapaths against each other and against independent
// in-test references. The batched line transform is additionally validated
// against a per-block reference built here from make_memory_tweak and the
// scalar cipher, so batching can never silently change keystream semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/backend.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/rng.hpp"

namespace secbus::crypto {
namespace {

std::vector<AesImpl> supported_aes_impls() {
  std::vector<AesImpl> impls{AesImpl::kTTable, AesImpl::kScalar};
  if (aes_impl_supported(AesImpl::kAesni)) impls.push_back(AesImpl::kAesni);
  return impls;
}

std::vector<ShaImpl> supported_sha_impls() {
  std::vector<ShaImpl> impls{ShaImpl::kPortable};
  if (sha_impl_supported(ShaImpl::kShaNi)) impls.push_back(ShaImpl::kShaNi);
  return impls;
}

Aes128Key random_key(util::Xoshiro256& rng) {
  Aes128Key key;
  rng.fill(key);
  return key;
}

class AesBackendDiff : public ::testing::TestWithParam<AesImpl> {
 protected:
  // Same key, two contexts: the datapath under test and the byte-wise
  // FIPS-197 reference.
  void rekey(const Aes128Key& key) {
    tested_.rekey(key);
    tested_.set_impl(GetParam());
    reference_.rekey(key);
    reference_.set_impl(AesImpl::kScalar);
  }

  Aes128 tested_{Aes128Key{}};
  Aes128 reference_{Aes128Key{}};
};

TEST_P(AesBackendDiff, EncryptBlocksMatchesScalarOnRandomBuffers) {
  util::Xoshiro256 rng(0xECB0'0001u);
  for (int trial = 0; trial < 40; ++trial) {
    rekey(random_key(rng));
    const std::size_t nblocks = 1 + rng.below(24);
    std::vector<std::uint8_t> plain(nblocks * 16);
    rng.fill(plain);
    std::vector<std::uint8_t> ct_fast(plain.size());
    std::vector<std::uint8_t> ct_ref(plain.size());
    tested_.encrypt_blocks(plain.data(), ct_fast.data(), nblocks);
    reference_.encrypt_blocks(plain.data(), ct_ref.data(), nblocks);
    EXPECT_EQ(ct_fast, ct_ref) << "trial " << trial;
  }
}

TEST_P(AesBackendDiff, EncryptBlocksInPlaceAliasing) {
  util::Xoshiro256 rng(0xECB0'0002u);
  rekey(random_key(rng));
  std::vector<std::uint8_t> buf(8 * 16);
  rng.fill(buf);
  const std::vector<std::uint8_t> plain = buf;
  tested_.encrypt_blocks(buf.data(), buf.data(), 8);
  std::vector<std::uint8_t> expected(plain.size());
  reference_.encrypt_blocks(plain.data(), expected.data(), 8);
  EXPECT_EQ(buf, expected);
}

TEST_P(AesBackendDiff, MemoryXcryptLineMatchesPerBlockReference) {
  util::Xoshiro256 rng(0x11FE'0001u);
  for (int trial = 0; trial < 30; ++trial) {
    rekey(random_key(rng));
    const auto nonce = static_cast<std::uint32_t>(rng.next());
    const auto version = static_cast<std::uint32_t>(rng.next());
    // Line addresses near the 2^32 block boundary too: the tweak's address
    // field is 64-bit, stepping by 16 per block.
    const std::uint64_t line_addr =
        (trial % 3 == 0) ? 0xFFFFFFF0ull + rng.below(64)
                         : rng.next() & ~0xFull;
    const std::size_t nblocks = 1 + rng.below(16);
    std::vector<std::uint8_t> plain(nblocks * 16);
    rng.fill(plain);

    // Reference: per 16-byte block, the scalar cipher over the block's
    // tweak at its stepped address, XORed into the plaintext.
    std::vector<std::uint8_t> expected(plain.size());
    for (std::size_t b = 0; b < nblocks; ++b) {
      const AesBlock keystream = reference_.encrypt(
          make_memory_tweak(nonce, line_addr + 16 * b, version));
      for (std::size_t i = 0; i < 16; ++i) {
        expected[16 * b + i] = plain[16 * b + i] ^ keystream[i];
      }
    }

    std::vector<std::uint8_t> out(plain.size());
    memory_xcrypt_line(tested_, nonce, line_addr, version, plain, out);
    EXPECT_EQ(out, expected) << "trial " << trial;

    // In-place, as the Confidentiality Core drives it.
    std::vector<std::uint8_t> inplace = plain;
    memory_xcrypt_line(tested_, nonce, line_addr, version, inplace, inplace);
    EXPECT_EQ(inplace, expected) << "trial " << trial << " (aliasing)";
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpls, AesBackendDiff,
                         ::testing::ValuesIn(supported_aes_impls()),
                         [](const auto& info) {
                           switch (info.param) {
                             case AesImpl::kTTable: return "ttable";
                             case AesImpl::kScalar: return "scalar";
                             case AesImpl::kAesni: return "aesni";
                           }
                           return "unknown";
                         });

TEST(ShaBackendDiff, AllImplsAgreeOnRandomLengths) {
  const auto impls = supported_sha_impls();
  util::Xoshiro256 rng(0x5AA5'0001u);
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> data(len + 1);  // +1: non-null data() at len==0
    rng.fill(data);
    const std::span<const std::uint8_t> msg(data.data(), len);

    Sha256 ref;
    ref.set_impl(ShaImpl::kPortable);
    ref.update(msg);
    const Sha256Digest expected = ref.finalize();

    for (const ShaImpl impl : impls) {
      Sha256 ctx;
      ctx.set_impl(impl);
      ctx.update(msg);
      EXPECT_EQ(ctx.finalize(), expected)
          << "len " << len << " impl " << to_string(impl);
      EXPECT_EQ(Sha256::digest_parts({msg}, impl), expected)
          << "len " << len << " impl " << to_string(impl) << " (fused)";
    }
  }
}

TEST(ShaBackendDiff, DigestPartsSplitsAgreeAcrossImpls) {
  util::Xoshiro256 rng(0x5AA5'0002u);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = rng.below(280);
    std::vector<std::uint8_t> data(len + 1);
    rng.fill(data);
    const std::size_t cut = rng.below(len + 1);
    const std::span<const std::uint8_t> head(data.data(), cut);
    const std::span<const std::uint8_t> tail(data.data() + cut, len - cut);

    const Sha256Digest expected =
        Sha256::digest(std::span<const std::uint8_t>(data.data(), len));
    for (const ShaImpl impl : supported_sha_impls()) {
      EXPECT_EQ(Sha256::digest_parts({head, tail}, impl), expected)
          << "trial " << trial << " impl " << to_string(impl);
    }
  }
}

TEST(HmacBackendDiff, AllImplsAgreeIncludingLongKeys) {
  util::Xoshiro256 rng(0x4A4C'0001u);
  // Key lengths straddling the SHA-256 block size: >64 triggers the
  // hash-the-key path in rekey().
  for (const std::size_t key_len : {1u, 16u, 32u, 63u, 64u, 65u, 200u}) {
    std::vector<std::uint8_t> key(key_len);
    rng.fill(key);
    const std::size_t msg_len = rng.below(300);
    std::vector<std::uint8_t> msg(msg_len + 1);
    rng.fill(msg);
    const std::span<const std::uint8_t> msg_span(msg.data(), msg_len);

    HmacSha256 ref(key);
    ref.set_impl(ShaImpl::kPortable);
    const Sha256Digest expected = ref.mac(msg_span);

    for (const ShaImpl impl : supported_sha_impls()) {
      HmacSha256 mac(key);
      mac.set_impl(impl);
      EXPECT_EQ(mac.mac(msg_span), expected)
          << "key_len " << key_len << " impl " << to_string(impl);
      mac.start();
      mac.update(msg_span);
      EXPECT_EQ(mac.finish(), expected)
          << "key_len " << key_len << " impl " << to_string(impl)
          << " (streaming)";
    }
  }
}

// End-to-end: a full ciphered+integrity simulation must produce bit-identical
// results no matter which backend drives the crypto substrate (ISSUE
// acceptance: "byte-identical SocResults across backends").
class BackendSocEquivalence : public ::testing::Test {
 protected:
  ~BackendSocEquivalence() override {
    set_backend_for_testing(original_);  // restore for later tests in this TU
  }
  const BackendKind original_ = active_backend().kind;
};

TEST_F(BackendSocEquivalence, TinyConfigBitIdenticalAcrossBackends) {
  std::vector<BackendKind> kinds{BackendKind::kPortable, BackendKind::kScalar};
  if (aes_impl_supported(AesImpl::kAesni) ||
      sha_impl_supported(ShaImpl::kShaNi)) {
    kinds.push_back(BackendKind::kAccel);
  }

  struct Digest {
    sim::Cycle cycles;
    std::uint64_t ok;
    std::uint64_t bytes;
    double latency;
    std::uint64_t lcf_lines;
    bool operator==(const Digest&) const = default;
  };

  std::vector<Digest> digests;
  for (const BackendKind kind : kinds) {
    set_backend_for_testing(kind);
    soc::SocConfig cfg = soc::tiny_test_config();
    soc::Soc soc(cfg);  // constructed after the switch: captures the backend
    const soc::SocResults r = soc.run(3'000'000);
    ASSERT_TRUE(r.completed) << "backend " << to_string(kind);
    digests.push_back({r.cycles, r.transactions_ok, r.bytes_moved,
                       r.avg_access_latency,
                       soc.lcf() != nullptr ? soc.lcf()->stats().lines_encrypted
                                            : 0});
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0])
        << to_string(kinds[i]) << " vs " << to_string(kinds[0]);
  }
}

}  // namespace
}  // namespace secbus::crypto
