// CRC-32C (Castagnoli, poly 0x1EDC6F41 reflected to 0x82F63B78) — the WAL's
// record checksum. Chosen over the 802.11 FCS CRC-32 (net80211/crc32.h)
// deliberately: the two polynomials detect different error patterns, so a
// frame whose FCS was damaged in a way CRC-32 misses still has an independent
// chance of tripping the WAL framing check, and the distinct constants make
// it impossible to confuse an on-air checksum with an on-disk one.
//
// The WAL checksums every record on the ingest hot path, so this is tuned:
// SSE4.2 `crc32` instructions when the CPU has them (picked once at startup),
// otherwise a slice-by-8 table walk. Both produce identical values; the RFC
// 3720 vector in durability_wal_test pins the polynomial either way.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/endian.h"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define MM_CRC32C_HW 1
#endif

namespace mm::durability {

namespace detail {

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
/// advances a byte through k+1 zero bytes, letting the loop fold 8 input
/// bytes per iteration with independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32c_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      crc = (crc >> 8) ^ tables[0][crc & 0xFFu];
      tables[k][i] = crc;
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32cTables =
    make_crc32c_tables();

[[nodiscard]] inline std::uint32_t crc32c_sw(const std::uint8_t* data,
                                             std::size_t size) noexcept {
  const auto& t = kCrc32cTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    // The crc folds into the chunk's first four bytes.
    const std::uint64_t chunk = util::le::load_u64(data) ^ crc;
    crc = t[7][chunk & 0xFFu] ^ t[6][(chunk >> 8) & 0xFFu] ^
          t[5][(chunk >> 16) & 0xFFu] ^ t[4][(chunk >> 24) & 0xFFu] ^
          t[3][(chunk >> 32) & 0xFFu] ^ t[2][(chunk >> 40) & 0xFFu] ^
          t[1][(chunk >> 48) & 0xFFu] ^ t[0][(chunk >> 56) & 0xFFu];
    data += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data++) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

#ifdef MM_CRC32C_HW
[[nodiscard]] __attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const std::uint8_t* data, std::size_t size) noexcept {
  std::uint64_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data, 8);
    crc = _mm_crc32_u64(crc, chunk);
    data += 8;
    size -= 8;
  }
  std::uint32_t crc32 = static_cast<std::uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *data++);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = std::uint32_t (*)(const std::uint8_t*, std::size_t) noexcept;

[[nodiscard]] inline Crc32cFn pick_crc32c() noexcept {
#ifdef MM_CRC32C_HW
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_hw;
#endif
  return &crc32c_sw;
}

inline const Crc32cFn kCrc32c = pick_crc32c();

}  // namespace detail

/// CRC-32C over the buffer (init/final XOR 0xFFFFFFFF).
[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return detail::kCrc32c(data.data(), data.size());
}

}  // namespace mm::durability
