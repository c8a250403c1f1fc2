#include "crypto/aes128.hpp"

#include <cstring>

#include "util/bitops.hpp"

namespace secbus::crypto {

namespace {

using detail::kSbox;

// Reassembles four S-box bytes into a big-endian state word (final rounds,
// which skip MixColumns and therefore bypass the T-tables).
constexpr std::uint32_t pack_words(std::uint8_t b0, std::uint8_t b1,
                                   std::uint8_t b2, std::uint8_t b3) noexcept {
  return detail::pack_be(b0, b1, b2, b3);
}

inline std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

void sub_bytes(std::uint8_t s[16]) noexcept {
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
}

// State is column-major as in FIPS-197: s[r + 4*c].
void shift_rows(std::uint8_t s[16]) noexcept {
  std::uint8_t t;
  // row 1: rotate left by 1
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // row 2: rotate left by 2
  t = s[2]; s[2] = s[10]; s[10] = t;
  t = s[6]; s[6] = s[14]; s[14] = t;
  // row 3: rotate left by 3 (= right by 1)
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void mix_columns(std::uint8_t s[16]) noexcept {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
    col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
    col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
    col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
    col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
  }
}

void add_round_key(std::uint8_t s[16], const std::uint8_t* rk) noexcept {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

}  // namespace

void Aes128::rekey(const Aes128Key& key) noexcept {
  // FIPS-197 key expansion for Nk=4, Nr=10: 44 32-bit words.
  std::memcpy(round_keys_.data(), key.data(), kAes128KeyBytes);
  std::uint8_t rcon = 0x01;
  for (int word = 4; word < 44; ++word) {
    std::uint8_t temp[4];
    std::memcpy(temp, round_keys_.data() + 4 * (word - 1), 4);
    if (word % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t first = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ rcon);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[first];
      rcon = xtime(rcon);
    }
    for (int i = 0; i < 4; ++i) {
      round_keys_[static_cast<std::size_t>(4 * word + i)] =
          round_keys_[static_cast<std::size_t>(4 * (word - 4) + i)] ^ temp[i];
    }
  }

  for (std::size_t w = 0; w < enc_words_.size(); ++w) {
    enc_words_[w] = util::load_be32(round_keys_.data() + 4 * w);
  }
}

void Aes128::encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                            std::size_t nblocks) const noexcept {
  switch (impl_) {
    case AesImpl::kAesni:
      accel::aes_encrypt_blocks(round_keys_.data(), in, out, nblocks);
      break;
    case AesImpl::kTTable:
      for (std::size_t i = 0; i < nblocks; ++i) {
        encrypt_block_ttable(in + 16 * i, out + 16 * i);
      }
      break;
    case AesImpl::kScalar:
      for (std::size_t i = 0; i < nblocks; ++i) {
        encrypt_block_scalar(in + 16 * i, out + 16 * i);
      }
      break;
  }
}

void Aes128::encrypt_block_ttable(const std::uint8_t in[kAesBlockBytes],
                                  std::uint8_t out[kAesBlockBytes]) const noexcept {
  using namespace detail;
  const std::uint32_t* rk = enc_words_.data();
  std::uint32_t s0 = util::load_be32(in) ^ rk[0];
  std::uint32_t s1 = util::load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = util::load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = util::load_be32(in + 12) ^ rk[3];
  for (int round = 1; round < kAes128Rounds; ++round) {
    rk += 4;
    // One fused SubBytes+ShiftRows+MixColumns round: column c reads row r's
    // byte from column (c + r) mod 4 (ShiftRows rotates row r left by r).
    const std::uint32_t t0 = kTe0[s0 >> 24] ^ kTe1[(s1 >> 16) & 0xff] ^
                             kTe2[(s2 >> 8) & 0xff] ^ kTe3[s3 & 0xff] ^ rk[0];
    const std::uint32_t t1 = kTe0[s1 >> 24] ^ kTe1[(s2 >> 16) & 0xff] ^
                             kTe2[(s3 >> 8) & 0xff] ^ kTe3[s0 & 0xff] ^ rk[1];
    const std::uint32_t t2 = kTe0[s2 >> 24] ^ kTe1[(s3 >> 16) & 0xff] ^
                             kTe2[(s0 >> 8) & 0xff] ^ kTe3[s1 & 0xff] ^ rk[2];
    const std::uint32_t t3 = kTe0[s3 >> 24] ^ kTe1[(s0 >> 16) & 0xff] ^
                             kTe2[(s1 >> 8) & 0xff] ^ kTe3[s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  const std::uint32_t t0 =
      pack_words(kSbox[s0 >> 24], kSbox[(s1 >> 16) & 0xff],
                 kSbox[(s2 >> 8) & 0xff], kSbox[s3 & 0xff]) ^ rk[0];
  const std::uint32_t t1 =
      pack_words(kSbox[s1 >> 24], kSbox[(s2 >> 16) & 0xff],
                 kSbox[(s3 >> 8) & 0xff], kSbox[s0 & 0xff]) ^ rk[1];
  const std::uint32_t t2 =
      pack_words(kSbox[s2 >> 24], kSbox[(s3 >> 16) & 0xff],
                 kSbox[(s0 >> 8) & 0xff], kSbox[s1 & 0xff]) ^ rk[2];
  const std::uint32_t t3 =
      pack_words(kSbox[s3 >> 24], kSbox[(s0 >> 16) & 0xff],
                 kSbox[(s1 >> 8) & 0xff], kSbox[s2 & 0xff]) ^ rk[3];
  util::store_be32(out, t0);
  util::store_be32(out + 4, t1);
  util::store_be32(out + 8, t2);
  util::store_be32(out + 12, t3);
}

void Aes128::encrypt_block_scalar(const std::uint8_t in[kAesBlockBytes],
                                  std::uint8_t out[kAesBlockBytes]) const noexcept {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  add_round_key(s, round_keys_.data());
  for (int round = 1; round < kAes128Rounds; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, round_keys_.data() + 16 * round);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, round_keys_.data() + 16 * kAes128Rounds);
  std::memcpy(out, s, 16);
}

AesBlock Aes128::encrypt(const AesBlock& in) const noexcept {
  AesBlock out;
  encrypt_block(in.data(), out.data());
  return out;
}

}  // namespace secbus::crypto
