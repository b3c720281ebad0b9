// Little-endian byte order for every on-disk and on-wire format (WAL
// segments, WPS snapshots and queries, Lattice wire frames, pcap files,
// 802.11 frames). Loads and stores are one memcpy on a little-endian host —
// the compiler emits a single unaligned move, which the WPS MAC-index binary
// search relies on — and swap bytes only on a big-endian one, so the bytes
// written are the same on every host.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace mm::util::le {

namespace detail {

template <typename U>
constexpr U to_from_native(U v) noexcept {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    U out = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out = static_cast<U>((out << 8) | (v & 0xff));
      v = static_cast<U>(v >> 8);
    }
    return out;
  }
}

template <typename U>
U load(const std::uint8_t* p) noexcept {
  U v;
  std::memcpy(&v, p, sizeof(v));
  return to_from_native(v);
}

template <typename U>
void store(std::uint8_t* p, U v) noexcept {
  v = to_from_native(v);
  std::memcpy(p, &v, sizeof(v));
}

template <typename U>
void append(std::vector<std::uint8_t>& out, U v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(U));
  store(out.data() + at, v);
}

}  // namespace detail

inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return detail::load<std::uint16_t>(p);
}
inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return detail::load<std::uint32_t>(p);
}
inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return detail::load<std::uint64_t>(p);
}
inline double load_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(load_u64(p));
}

inline void store_u16(std::uint8_t* p, std::uint16_t v) noexcept { detail::store(p, v); }
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept { detail::store(p, v); }
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept { detail::store(p, v); }
inline void store_f64(std::uint8_t* p, double v) noexcept {
  store_u64(p, std::bit_cast<std::uint64_t>(v));
}

inline void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  detail::append(out, v);
}
inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  detail::append(out, v);
}
inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  detail::append(out, v);
}
inline void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

}  // namespace mm::util::le
