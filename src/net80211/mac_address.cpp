#include "net80211/mac_address.h"

#include <cctype>

#include "util/rng.h"

namespace mm::net80211 {

std::optional<MacAddress> MacAddress::parse(std::string_view text) {
  std::array<std::uint8_t, 6> bytes{};
  std::size_t pos = 0;
  for (int octet = 0; octet < 6; ++octet) {
    if (pos + 2 > text.size()) return std::nullopt;
    int value = 0;
    for (int nibble = 0; nibble < 2; ++nibble) {
      const char c = text[pos++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= c - '0';
      } else if (c >= 'a' && c <= 'f') {
        value |= c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        value |= c - 'A' + 10;
      } else {
        return std::nullopt;
      }
    }
    bytes[static_cast<std::size_t>(octet)] = static_cast<std::uint8_t>(value);
    if (octet < 5) {
      if (pos >= text.size() || (text[pos] != ':' && text[pos] != '-')) return std::nullopt;
      ++pos;
    }
  }
  if (pos != text.size()) return std::nullopt;
  return MacAddress(bytes);
}

MacAddress MacAddress::random(util::Rng& rng, std::array<std::uint8_t, 3> oui) {
  std::array<std::uint8_t, 6> bytes{};
  bytes[0] = oui[0];
  bytes[1] = oui[1];
  bytes[2] = oui[2];
  for (int i = 3; i < 6; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return MacAddress(bytes);
}

MacAddress MacAddress::random_local(util::Rng& rng) {
  std::array<std::uint8_t, 6> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  bytes[0] = static_cast<std::uint8_t>((bytes[0] | 0x02) & ~0x01);  // local, unicast
  return MacAddress(bytes);
}

std::string MacAddress::to_string() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(17);
  for (int i = 0; i < 6; ++i) {
    if (i != 0) out += ':';
    out += kHex[bytes_[static_cast<std::size_t>(i)] >> 4];
    out += kHex[bytes_[static_cast<std::size_t>(i)] & 0x0f];
  }
  return out;
}

}  // namespace mm::net80211
