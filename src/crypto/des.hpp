// ANSI X3.92 DES and 3DES-EDE (Triple DES).
//
// The paper's third cipher option, validated against published test
// vectors.  The rounds are table-driven: S-boxes fused with P into eight
// 64-entry words, and IP/FP as byte-sliced 8x256 lookups, all built at
// compile time from the standard's tables in des.cpp.  The key schedule
// stays bit-by-bit (it runs once per key).  OFB mode only ever calls the
// forward transform.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/block_cipher.hpp"

namespace tv::crypto {

/// Single DES with a 64-bit key (parity bits ignored).
class Des final : public BlockCipher {
 public:
  /// key must be exactly 8 bytes.
  explicit Des(std::span<const std::uint8_t> key);

  [[nodiscard]] std::size_t block_size() const override { return 8; }
  [[nodiscard]] std::size_t key_size() const override { return 8; }
  [[nodiscard]] std::string_view name() const override { return "DES"; }

  void encrypt_block(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decrypt_block(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void encrypt_blocks(std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out,
                      std::size_t n) const override;
  void ofb_keystream(std::span<std::uint8_t> feedback,
                     std::span<std::uint8_t> out,
                     std::size_t n) const override;

  /// Raw 64-bit block transforms used by TripleDes.
  [[nodiscard]] std::uint64_t encrypt64(std::uint64_t block) const;
  [[nodiscard]] std::uint64_t decrypt64(std::uint64_t block) const;

 private:
  std::array<std::uint64_t, 16> subkeys_{};  // 48-bit round keys.
};

/// 3DES in EDE mode with a 24-byte key (K1 | K2 | K3).  Supplying
/// K1 == K2 == K3 degenerates to single DES, which the tests exploit.
class TripleDes final : public BlockCipher {
 public:
  /// key must be exactly 24 bytes.
  explicit TripleDes(std::span<const std::uint8_t> key);

  [[nodiscard]] std::size_t block_size() const override { return 8; }
  [[nodiscard]] std::size_t key_size() const override { return 24; }
  [[nodiscard]] std::string_view name() const override { return "3DES"; }

  void encrypt_block(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decrypt_block(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void encrypt_blocks(std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out,
                      std::size_t n) const override;
  void ofb_keystream(std::span<std::uint8_t> feedback,
                     std::span<std::uint8_t> out,
                     std::size_t n) const override;

 private:
  [[nodiscard]] std::uint64_t ede64(std::uint64_t block) const {
    return k3_.encrypt64(k2_.decrypt64(k1_.encrypt64(block)));
  }

  Des k1_;
  Des k2_;
  Des k3_;
};

}  // namespace tv::crypto
