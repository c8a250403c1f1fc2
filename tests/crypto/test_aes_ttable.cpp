// Per-datapath AES vectors (FIPS-197 Appendices B and C.1, SP 800-38A ECB)
// and differential validation of the 32-bit T-table fast path against the
// byte-wise FIPS-197 reference on randomized keys/blocks.
#include "crypto/aes128.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "scoped_datapaths.hpp"
#include "util/hexdump.hpp"
#include "util/rng.hpp"

namespace secbus::crypto {
namespace {

using util::from_hex;

Aes128Key key_from_hex(const std::string& hex) {
  const auto bytes = from_hex(hex);
  Aes128Key key{};
  std::copy(bytes.begin(), bytes.end(), key.begin());
  return key;
}

AesBlock block_from_hex(const std::string& hex) {
  const auto bytes = from_hex(hex);
  AesBlock block{};
  std::copy(bytes.begin(), bytes.end(), block.begin());
  return block;
}

AesBlock random_block(util::Xoshiro256& rng) {
  AesBlock block;
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.below(256));
  return block;
}

// FIPS-197 Appendix B: the canonical 128-bit example vector.
const char* kFipsKey = "2b7e151628aed2a6abf7158809cf4f3c";
const char* kFipsPlain = "3243f6a8885a308d313198a2e0370734";
const char* kFipsCipher = "3925841d02dc09fbdc118597196a0b32";

// FIPS-197 Appendix C.1: sequential key/plaintext example.
const char* kAppCKey = "000102030405060708090a0b0c0d0e0f";
const char* kAppCPlain = "00112233445566778899aabbccddeeff";
const char* kAppCCipher = "69c4e0d86a7b0430d8cdb78070b4c55a";

// Every context built in a test runs the parameter's datapath.
class AesImplVectors : public ::testing::TestWithParam<AesImpl> {
  ScopedDatapaths datapath_{GetParam()};
};

TEST_P(AesImplVectors, Fips197AppendixB) {
  Aes128 aes(key_from_hex(kFipsKey));
  EXPECT_EQ(aes.encrypt(block_from_hex(kFipsPlain)), block_from_hex(kFipsCipher));
}

TEST_P(AesImplVectors, Fips197AppendixC1) {
  Aes128 aes(key_from_hex(kAppCKey));
  EXPECT_EQ(aes.encrypt(block_from_hex(kAppCPlain)), block_from_hex(kAppCCipher));
}

// NIST SP 800-38A F.1.1 (ECB-AES128.Encrypt): four blocks in one
// encrypt_blocks call, which fills one AES-NI pipeline pass.
TEST_P(AesImplVectors, Sp80038aEcbEncryptBlocks) {
  Aes128 aes(key_from_hex(kFipsKey));
  const std::vector<std::uint8_t> plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::vector<std::uint8_t> cipher = from_hex(
      "3ad77bb40d7a3660a89ecaf32466ef97"
      "f5d3d58503b9699de785895a96fdbaaf"
      "43b1cd7f598ece23881b00e3ed030688"
      "7b0c785e27e8ad3f8223207104725dd4");
  std::vector<std::uint8_t> out(plain.size());
  aes.encrypt_blocks(plain.data(), out.data(), 4);
  EXPECT_EQ(out, cipher);
  std::vector<std::uint8_t> inplace = plain;
  aes.encrypt_blocks(inplace.data(), inplace.data(), 4);
  EXPECT_EQ(inplace, cipher);
}

TEST_P(AesImplVectors, RekeyRevalidates) {
  Aes128 aes(key_from_hex(kAppCKey));
  aes.rekey(key_from_hex(kFipsKey));
  EXPECT_EQ(aes.encrypt(block_from_hex(kFipsPlain)), block_from_hex(kFipsCipher));
}

// Every datapath this host can run, AES-NI included: the FIPS vectors above
// are the hardware path's ground truth, not just the portable ones'.
INSTANTIATE_TEST_SUITE_P(AllImpls, AesImplVectors,
                         ::testing::ValuesIn(supported_aes_impls()),
                         ImplName{});

TEST(AesTTableDifferential, RandomizedBlocksMatchScalar) {
  util::Xoshiro256 rng(0xA25F00D5u);
  for (int trial = 0; trial < 200; ++trial) {
    Aes128Key key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
    const Aes128 ttable = aes_on(AesImpl::kTTable, key);
    const Aes128 scalar = aes_on(AesImpl::kScalar, key);
    for (int block = 0; block < 8; ++block) {
      const AesBlock plain = random_block(rng);
      const AesBlock ct_fast = ttable.encrypt(plain);
      const AesBlock ct_ref = scalar.encrypt(plain);
      EXPECT_EQ(ct_fast, ct_ref) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace secbus::crypto
