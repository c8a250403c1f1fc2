// Differential tests across the crypto datapaths. Seeded-random keys,
// nonces, versions, lengths and alignments cross-check the accel
// (AES-NI/SHA-NI), T-table and scalar datapaths against each other and
// against independent in-test references. The batched line transform is
// additionally validated against a per-block reference built here from
// make_memory_tweak and the scalar cipher, so batching can never silently
// change keystream semantics. Last, whole simulations must leave the same
// bytes on every supported datapath pair.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/ciphering_firewall.hpp"
#include "core/format_cache.hpp"
#include "crypto/aes128.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/backend.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "scenario/registry.hpp"
#include "scenario/result_io.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "scoped_datapaths.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace secbus::crypto {
namespace {

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
    reference_.rekey(key);
  }

  Aes128 tested_ = aes_on(GetParam(), Aes128Key{});
  Aes128 reference_ = aes_on(AesImpl::kScalar, Aes128Key{});
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
                         ImplName{});

TEST(ShaBackendDiff, AllImplsAgreeOnRandomLengths) {
  const auto impls = supported_sha_impls();
  util::Xoshiro256 rng(0x5AA5'0001u);
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> data(len + 1);  // +1: non-null data() at len==0
    rng.fill(data);
    const std::span<const std::uint8_t> msg(data.data(), len);

    Sha256Digest expected;
    {
      const ScopedDatapaths portable(ShaImpl::kPortable);
      Sha256 ref;
      ref.update(msg);
      expected = ref.finalize();
    }

    for (const ShaImpl impl : impls) {
      const ScopedDatapaths datapath(impl);
      Sha256 ctx;
      ctx.update(msg);
      EXPECT_EQ(ctx.finalize(), expected)
          << "len " << len << " impl " << to_string(impl);
      EXPECT_EQ(Sha256::digest_parts({msg}), expected)
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
      const ScopedDatapaths datapath(impl);
      EXPECT_EQ(Sha256::digest_parts({head, tail}), expected)
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

    Sha256Digest expected;
    {
      const ScopedDatapaths portable(ShaImpl::kPortable);
      expected = HmacSha256(key).mac(msg_span);
    }

    for (const ShaImpl impl : supported_sha_impls()) {
      const ScopedDatapaths datapath(impl);
      HmacSha256 mac(key);
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

// End-to-end: whole simulations leave the same bytes on every supported
// datapath pair. The jobs are every builtin-scenario job whose external
// memory is ciphered, plus the four external attacks at full protection.
std::vector<scenario::ScenarioSpec> ciphered_jobs() {
  using scenario::AttackKind;
  std::vector<scenario::ScenarioSpec> jobs;
  for (const scenario::NamedScenario& named : scenario::builtin_scenarios()) {
    for (scenario::ScenarioSpec& spec :
         scenario::expand(named.spec, named.axes)) {
      if (spec.soc.protection != soc::ProtectionLevel::kPlaintext) {
        jobs.push_back(std::move(spec));
      }
    }
  }
  for (const AttackKind kind :
       {AttackKind::kExternalSpoof, AttackKind::kExternalReplay,
        AttackKind::kExternalRelocation, AttackKind::kExternalCorruption}) {
    scenario::ScenarioSpec spec;
    spec.name = "external";
    spec.variant = scenario::to_string(kind);
    spec.soc = soc::tiny_test_config();
    spec.soc.protection = soc::ProtectionLevel::kFull;
    spec.soc.transactions_per_cpu = 40;
    spec.attack.kind = kind;
    spec.max_cycles = 300'000;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

// What one job leaves behind: its streamed JobResult (metrics included),
// its alert log and, where an LCF ciphers, the datapaths' own output: the
// protected region as stored in external memory and the hash-tree root.
// The simulated results alone would not show a datapath that is wrong but
// self-consistent (a CTR keystream that encrypts and decrypts alike).
std::string job_bytes(const scenario::ScenarioSpec& spec) {
  std::string after;
  scenario::RunHooks hooks;
  hooks.collect_metrics = true;
  hooks.inspect = [&](soc::Soc& soc, const scenario::JobResult&) {
    after += "alerts:\n";
    for (const core::Alert& alert : soc.log().alerts()) {
      after += alert.describe();
      after += '\n';
    }
    const core::LocalCipheringFirewall* lcf = soc.lcf();
    if (lcf == nullptr) return;
    std::vector<std::uint8_t> stored(lcf->config().protected_size);
    soc.ddr().store().peek(lcf->config().protected_base, stored);
    after += "stored region: ";
    after.append(stored.begin(), stored.end());
    if (lcf->im() == core::IntegrityMode::kHashTree) {
      const Sha256Digest& root = lcf->ic().tree().root();
      after += "\ntree root: ";
      after.append(root.begin(), root.end());
    }
  };
  const scenario::JobResult result = scenario::run_scenario(spec, hooks);
  std::string out;
  util::JsonWriter w(out);
  scenario::write_job_result(w, result);
  return out + '\n' + after;
}

TEST(DatapathSocEquivalence, CipheredJobsByteIdenticalOnEveryPair) {
  const std::vector<scenario::ScenarioSpec> jobs = ciphered_jobs();
  const std::vector<Datapaths> pairs = supported_datapath_pairs();
  ASSERT_GE(jobs.size(), 4u);
  ASSERT_GE(pairs.size(), 2u);

  std::vector<std::vector<std::string>> outputs;
  for (const Datapaths& pair : pairs) {
    const ScopedDatapaths datapath(pair);
    // A cached protected-region format was ciphered and hashed on the
    // previous pair's datapaths; start each pair from a cold cache.
    core::FormatCache::instance().clear();
    std::vector<std::string>& out = outputs.emplace_back();
    for (const scenario::ScenarioSpec& spec : jobs) {
      out.push_back(job_bytes(spec));
    }
  }
  core::FormatCache::instance().clear();

  for (std::size_t p = 1; p < pairs.size(); ++p) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_TRUE(outputs[p][j] == outputs[0][j])
          << jobs[j].name << " [" << jobs[j].variant << "]: "
          << to_string(pairs[p]) << " differs from " << to_string(pairs[0]);
    }
  }
}

}  // namespace
}  // namespace secbus::crypto
