#include "crypto/aes128.hpp"

#include <gtest/gtest.h>

#include "util/hexdump.hpp"

namespace secbus::crypto {
namespace {

using util::from_hex;
using util::to_hex;

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

TEST(GaloisField, MultiplicationKnownValues) {
  // FIPS-197 Section 4.2 example: {57} x {83} = {c1}.
  EXPECT_EQ(gf_mul(0x57, 0x83), 0xC1);
  // {57} x {13} = {fe} (FIPS-197 Section 4.2.1).
  EXPECT_EQ(gf_mul(0x57, 0x13), 0xFE);
  EXPECT_EQ(gf_mul(0x01, 0xAB), 0xAB);
  EXPECT_EQ(gf_mul(0x00, 0xFF), 0x00);
}

TEST(GaloisField, InverseIsInverse) {
  EXPECT_EQ(gf_inv(0), 0);
  for (unsigned v = 1; v < 256; ++v) {
    const auto x = static_cast<std::uint8_t>(v);
    EXPECT_EQ(gf_mul(x, gf_inv(x)), 1) << "failed for " << v;
  }
}

TEST(Sbox, KnownEntries) {
  // Spot values from the FIPS-197 S-box table.
  EXPECT_EQ(detail::kSbox[0x00], 0x63);
  EXPECT_EQ(detail::kSbox[0x01], 0x7C);
  EXPECT_EQ(detail::kSbox[0x53], 0xED);
  EXPECT_EQ(detail::kSbox[0xFF], 0x16);
}

TEST(Aes128, Fips197KeyExpansion) {
  // FIPS-197 Appendix A.1 for key 2b7e1516...
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto rk = aes.round_keys();
  ASSERT_EQ(rk.size(), 176u);
  // w[4..7] after the first expansion step.
  EXPECT_EQ(to_hex(rk.subspan(16, 4)), "a0fafe17");
  EXPECT_EQ(to_hex(rk.subspan(20, 4)), "88542cb1");
  // Final round key w[40..43].
  EXPECT_EQ(to_hex(rk.subspan(160, 16)), "d014f9a8c9ee2589e13f0cc8b6630ca6");
}

TEST(Aes128, Fips197AppendixBEncrypt) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const AesBlock pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  const AesBlock ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex({ct.data(), ct.size()}), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, Fips197AppendixCEncrypt) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const AesBlock pt = block_from_hex("00112233445566778899aabbccddeeff");
  const AesBlock ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex({ct.data(), ct.size()}), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, RekeyChangesOutput) {
  Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const AesBlock pt = block_from_hex("00112233445566778899aabbccddeeff");
  const AesBlock ct1 = aes.encrypt(pt);
  aes.rekey(key_from_hex("ffeeddccbbaa99887766554433221100"));
  const AesBlock ct2 = aes.encrypt(pt);
  EXPECT_NE(ct1, ct2);
  aes.rekey(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  EXPECT_EQ(aes.encrypt(pt), ct1);
}

TEST(Aes128, AvalancheOneBitFlip) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  AesBlock pt{};
  const AesBlock ct1 = aes.encrypt(pt);
  pt[0] ^= 0x01;
  const AesBlock ct2 = aes.encrypt(pt);
  int differing_bits = 0;
  for (std::size_t i = 0; i < ct1.size(); ++i) {
    differing_bits += std::popcount(static_cast<unsigned>(ct1[i] ^ ct2[i]));
  }
  // Expect roughly half of 128 bits to flip; 30+ is a loose sanity bound.
  EXPECT_GT(differing_bits, 30);
}

}  // namespace
}  // namespace secbus::crypto
