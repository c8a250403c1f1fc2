// Known answers for the LCF's line cipher (crypto/aes_modes.hpp): the
// tweak layout and memory_xcrypt_line bytes pinned per AES datapath.
#include "crypto/aes_modes.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "scoped_datapaths.hpp"
#include "util/hexdump.hpp"

namespace secbus::crypto {
namespace {

using util::from_hex;
using util::to_hex;

const Aes128Key kNistKey = [] {
  Aes128Key k{};
  const auto bytes = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  std::copy(bytes.begin(), bytes.end(), k.begin());
  return k;
}();

// NIST SP 800-38A plaintext (its four blocks), repeated to a 256-byte line.
const std::vector<std::uint8_t> kLinePlain = [] {
  const auto blocks = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  std::vector<std::uint8_t> line;
  for (int i = 0; i < 4; ++i) line.insert(line.end(), blocks.begin(), blocks.end());
  return line;
}();

// The line transform's tweak parameters. The address puts the 2^33 boundary
// inside a 64-byte line, so the tweak's 64-bit address field carries.
constexpr std::uint32_t kNonce = 0xA5A5F00D;
constexpr std::uint64_t kLineAddr = 0x1'FFFF'FFE0ull;
constexpr std::uint32_t kVersion = 7;

// memory_xcrypt_line(kNistKey, kNonce, kLineAddr, kVersion) of kLinePlain.
// Block i's keystream depends only on kLineAddr + 16*i, so every shorter
// line starting at kLineAddr transforms to a prefix of this.
constexpr const char* kLineCipher =
    "26deccdbb5b62766f9645f3749027a93f29ca81fb33a22676e1a7c347df93d0b"
    "34ee2d32930bb8f88c8879df230530c129e8eccbfa4896522bb86be73b4fde10"
    "245dce71d67d25c986474d34f3a1fa640a2e3e9193303c4f66451e9b8aea25f0"
    "18cb259a4d31bc0a39b2c0128991b8069d2aa29d44ef21a0eb7f034aa7f346aa"
    "f003b0a746fb02b6dfe76240f797ca9f407234d970a61034b08c1a6f7c289c24"
    "c8fa5a4b1f1143de2daa922822a9901105f2d23ed22333f014a930589a92226a"
    "a704518dfd948594803fab883377658b03e2728e0930535b0b06c29b8fa357ff"
    "3f576eb9688c8f3258cd364af5ebab77e0a5bf369d6122487b8404821fcacaa5";

TEST(MemoryTweak, LayoutBindsNonceAddressVersion) {
  const AesBlock tweak = make_memory_tweak(0xAABBCCDD, 0x1122334455667788ULL,
                                           0x99AA77EE);
  EXPECT_EQ(to_hex({tweak.data(), tweak.size()}),
            "aabbccdd112233445566778899aa77ee");
}

class MemoryXcryptLineKat : public ::testing::TestWithParam<AesImpl> {
 protected:
  ScopedDatapaths datapath_{GetParam()};
  Aes128 aes_{kNistKey};  // built under datapath_: runs GetParam()
};

TEST_P(MemoryXcryptLineKat, KnownAnswerOutOfPlaceAndInPlace) {
  for (const std::size_t len : {16u, 32u, 64u, 256u}) {
    const std::span<const std::uint8_t> plain(kLinePlain.data(), len);
    const std::string expected = std::string(kLineCipher).substr(0, 2 * len);

    std::vector<std::uint8_t> out(len);
    memory_xcrypt_line(aes_, kNonce, kLineAddr, kVersion, plain, out);
    EXPECT_EQ(to_hex({out.data(), out.size()}), expected) << "len " << len;

    std::vector<std::uint8_t> inplace(plain.begin(), plain.end());
    memory_xcrypt_line(aes_, kNonce, kLineAddr, kVersion, inplace, inplace);
    EXPECT_EQ(inplace, out) << "len " << len << " (in place)";

    // The transform is its own inverse.
    memory_xcrypt_line(aes_, kNonce, kLineAddr, kVersion, inplace, inplace);
    EXPECT_TRUE(std::equal(inplace.begin(), inplace.end(), plain.begin()))
        << "len " << len << " (twice)";
  }
}

TEST_P(MemoryXcryptLineKat, EveryTweakFieldChangesTheKeystream) {
  const std::vector<std::uint8_t> zeros(16, 0);
  const auto keystream = [&](std::uint32_t nonce, std::uint64_t addr,
                             std::uint32_t version) {
    std::vector<std::uint8_t> ks(16);
    memory_xcrypt_line(aes_, nonce, addr, version, zeros, ks);
    return ks;
  };
  const auto base = keystream(1, 0x1000, 1);
  EXPECT_NE(base, keystream(1, 0x1010, 1));  // relocated
  EXPECT_NE(base, keystream(1, 0x1000, 2));  // replayed
  EXPECT_NE(base, keystream(2, 0x1000, 1));  // other policy key's nonce
}

INSTANTIATE_TEST_SUITE_P(AllImpls, MemoryXcryptLineKat,
                         ::testing::ValuesIn(supported_aes_impls()),
                         ImplName{});

}  // namespace
}  // namespace secbus::crypto
