#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scoped_datapaths.hpp"
#include "util/hexdump.hpp"

namespace secbus::crypto {
namespace {

std::string digest_hex(std::string_view text) {
  const Sha256Digest d = Sha256::digest(text);
  return util::to_hex({d.data(), d.size()});
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039"
      "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const Sha256Digest d = ctx.finalize();
  EXPECT_EQ(util::to_hex({d.data(), d.size()}),
            "cdc76e5c9914fb9281a1c7e284d73e67"
            "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the "pad spills into a second block" path.
  const std::string msg(64, 'x');
  const Sha256Digest one_shot = Sha256::digest(msg);

  Sha256 ctx;
  ctx.update(std::string_view(msg).substr(0, 64));
  EXPECT_EQ(ctx.finalize(), one_shot);
}

TEST(Sha256, IncrementalMatchesOneShotAtAllSplits) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, until the "
      "message clearly spans multiple SHA-256 blocks in total length!!";
  const Sha256Digest expected = Sha256::digest(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(std::string_view(msg).substr(0, split));
    ctx.update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.finalize(), expected) << "split at " << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.update(std::string_view("garbage"));
  (void)ctx.finalize();
  ctx.reset();
  ctx.update(std::string_view("abc"));
  const Sha256Digest d = ctx.finalize();
  EXPECT_EQ(util::to_hex({d.data(), d.size()}),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DifferentMessagesDifferentDigests) {
  EXPECT_NE(digest_hex("abc"), digest_hex("abd"));
  // One NUL byte is a different message from the empty string.
  EXPECT_NE(digest_hex(""), digest_hex(std::string_view("\0", 1)));
}

// FIPS 180-4 vectors on every compression datapath this host can run —
// the SHA-NI path's ground truth is the standard vectors, not the portable
// implementation. Every context built in a test runs the parameter's
// datapath.
class Sha256ImplVectors : public ::testing::TestWithParam<ShaImpl> {
 protected:
  std::string hex(std::string_view text) const {
    Sha256 ctx;
    ctx.update(text);
    const Sha256Digest d = ctx.finalize();
    return util::to_hex({d.data(), d.size()});
  }

 private:
  ScopedDatapaths datapath_{GetParam()};
};

TEST_P(Sha256ImplVectors, StandardVectors) {
  EXPECT_EQ(hex(""),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039"
      "a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256ImplVectors, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const Sha256Digest d = ctx.finalize();
  EXPECT_EQ(util::to_hex({d.data(), d.size()}),
            "cdc76e5c9914fb9281a1c7e284d73e67"
            "f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256ImplVectors, DigestPartsMatchesStreaming) {
  const std::string a = "leaf data payload spanning some bytes";
  const std::string b = "binder";
  Sha256 ctx;
  ctx.update(a);
  ctx.update(b);
  const Sha256Digest streamed = ctx.finalize();
  const Sha256Digest fused = Sha256::digest_parts(
      {std::span<const std::uint8_t>(
           reinterpret_cast<const std::uint8_t*>(a.data()), a.size()),
       std::span<const std::uint8_t>(
           reinterpret_cast<const std::uint8_t*>(b.data()), b.size())});
  EXPECT_EQ(fused, streamed);
}

INSTANTIATE_TEST_SUITE_P(AllImpls, Sha256ImplVectors,
                         ::testing::ValuesIn(supported_sha_impls()),
                         ImplName{});

}  // namespace
}  // namespace secbus::crypto
