#include "crypto/des.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "util/rng.hpp"

namespace tv::crypto {
namespace {

// Classic worked example (Ronald L. Rivest's / standard textbook vector):
// key 133457799BBCDFF1, plaintext 0123456789ABCDEF -> 85E813540F0AB405.
const std::array<std::uint8_t, 8> kKey = {0x13, 0x34, 0x57, 0x79,
                                          0x9B, 0xBC, 0xDF, 0xF1};
const std::array<std::uint8_t, 8> kPlain = {0x01, 0x23, 0x45, 0x67,
                                            0x89, 0xAB, 0xCD, 0xEF};
const std::array<std::uint8_t, 8> kCipher = {0x85, 0xE8, 0x13, 0x54,
                                             0x0F, 0x0A, 0xB4, 0x05};

TEST(Des, KnownVectorEncrypts) {
  const Des des{kKey};
  std::array<std::uint8_t, 8> out{};
  des.encrypt_block(kPlain, out);
  EXPECT_EQ(out, kCipher);
}

TEST(Des, KnownVectorDecrypts) {
  const Des des{kKey};
  std::array<std::uint8_t, 8> out{};
  des.decrypt_block(kCipher, out);
  EXPECT_EQ(out, kPlain);
}

TEST(Des, RivestRecurrenceFirstSteps) {
  // X_{i+1} = DES(X_i, X_i) starting from 9474B8E8C73BCA7D reaches
  // 8DA744E0C94E5E17 after one step (R. Rivest's DES validation chain).
  const std::array<std::uint8_t, 8> x0 = {0x94, 0x74, 0xB8, 0xE8,
                                          0xC7, 0x3B, 0xCA, 0x7D};
  const Des des{x0};
  std::array<std::uint8_t, 8> x1{};
  des.encrypt_block(x0, x1);
  const std::array<std::uint8_t, 8> expected = {0x8D, 0xA7, 0x44, 0xE0,
                                                0xC9, 0x4E, 0x5E, 0x17};
  EXPECT_EQ(x1, expected);
}

class DesRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesRoundtrip, RandomBlocksRoundtrip) {
  util::Rng rng{GetParam()};
  std::vector<std::uint8_t> key(8);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const Des des{key};
  for (int i = 0; i < 64; ++i) {
    std::array<std::uint8_t, 8> pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng());
    std::array<std::uint8_t, 8> ct{};
    std::array<std::uint8_t, 8> back{};
    des.encrypt_block(pt, ct);
    des.decrypt_block(ct, back);
    EXPECT_EQ(back, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesRoundtrip,
                         ::testing::Values(10u, 20u, 30u, 40u));

TEST(TripleDes, DegeneratesToSingleDesWithRepeatedKey) {
  // Built by index, not repeated range-inserts: GCC 12's -Wstringop-overflow
  // misfires on the unrolled insert loop at -O3 (see src/net/pcap.cpp).
  std::vector<std::uint8_t> key24(24);
  for (std::size_t i = 0; i < key24.size(); ++i) key24[i] = kKey[i % kKey.size()];
  const TripleDes tdes{key24};
  std::array<std::uint8_t, 8> out{};
  tdes.encrypt_block(kPlain, out);
  EXPECT_EQ(out, kCipher);  // EDE with K1=K2=K3 is single DES.
}

TEST(TripleDes, RoundtripWithDistinctKeys) {
  util::Rng rng{99};
  std::vector<std::uint8_t> key(24);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const TripleDes tdes{key};
  for (int i = 0; i < 32; ++i) {
    std::array<std::uint8_t, 8> pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng());
    std::array<std::uint8_t, 8> ct{};
    std::array<std::uint8_t, 8> back{};
    tdes.encrypt_block(pt, ct);
    tdes.decrypt_block(ct, back);
    EXPECT_EQ(back, pt);
    EXPECT_NE(ct, pt);
  }
}

TEST(TripleDes, DiffersFromSingleDesWithDistinctKeys) {
  util::Rng rng{123};
  std::vector<std::uint8_t> key(24);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const TripleDes tdes{key};
  const Des des{std::span<const std::uint8_t>(key).subspan(0, 8)};
  std::array<std::uint8_t, 8> t{};
  std::array<std::uint8_t, 8> s{};
  tdes.encrypt_block(kPlain, t);
  des.encrypt_block(kPlain, s);
  EXPECT_NE(t, s);
}

TEST(TripleDes, PinnedBlockAndOfbKeystreamWithThreeKeys) {
  // NIST SP 800-67's three-key example: K1 | K2 | K3 with
  // "The qufc" -> A826FD8CE53B855F.
  const std::array<std::uint8_t, 24> key = {
      0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF,
      0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x01,
      0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x01, 0x23};
  const TripleDes tdes{key};
  const std::array<std::uint8_t, 8> pt = {'T', 'h', 'e', ' ',
                                          'q', 'u', 'f', 'c'};
  const std::array<std::uint8_t, 8> expected = {0xA8, 0x26, 0xFD, 0x8C,
                                                0xE5, 0x3B, 0x85, 0x5F};
  std::array<std::uint8_t, 8> ct{};
  tdes.encrypt_block(pt, ct);
  EXPECT_EQ(ct, expected);

  // 4 KiB of OFB keystream, pinned by its FNV-1a 64 digest and the
  // feedback register it leaves behind.
  std::array<std::uint8_t, 8> feedback = {0xF6, 0x9F, 0x24, 0x45,
                                          0xDF, 0x4F, 0x9B, 0x17};
  std::vector<std::uint8_t> keystream(4096);
  tdes.ofb_keystream(feedback, keystream, keystream.size() / 8);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : keystream) {
    digest ^= b;
    digest *= 0x100000001b3ULL;
  }
  EXPECT_EQ(digest, 0x642ECB12284D7348ULL);
  const std::array<std::uint8_t, 8> last = {0xBD, 0xC5, 0x65, 0x25,
                                            0x68, 0x9C, 0x8A, 0xD2};
  EXPECT_EQ(feedback, last);
}

TEST(DesFamily, RejectsBadSizes) {
  std::vector<std::uint8_t> seven(7, 0);
  EXPECT_THROW(Des{seven}, std::invalid_argument);
  std::vector<std::uint8_t> sixteen(16, 0);
  EXPECT_THROW(TripleDes{sixteen}, std::invalid_argument);
  const Des des{kKey};
  std::array<std::uint8_t, 7> small{};
  std::array<std::uint8_t, 8> out{};
  EXPECT_THROW(des.encrypt_block(small, out), std::invalid_argument);
}

TEST(DesFamily, Metadata) {
  const Des des{kKey};
  EXPECT_EQ(des.block_size(), 8u);
  EXPECT_EQ(des.name(), "DES");
  std::vector<std::uint8_t> key24(24, 1);
  const TripleDes tdes{key24};
  EXPECT_EQ(tdes.block_size(), 8u);
  EXPECT_EQ(tdes.key_size(), 24u);
  EXPECT_EQ(tdes.name(), "3DES");
}

}  // namespace
}  // namespace tv::crypto
