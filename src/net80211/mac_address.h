// IEEE 802 MAC addresses. The tracker keys every observation on the
// victim's MAC; the privacy-defense example exercises locally-administered
// (randomized) addresses, the countermeasure discussed in Section V.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace mm::util {
class Rng;
}

namespace mm::net80211 {

class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<std::uint8_t, 6> bytes) : bytes_(bytes) {}

  /// Parses "aa:bb:cc:dd:ee:ff" (case-insensitive, also accepts '-').
  [[nodiscard]] static std::optional<MacAddress> parse(std::string_view text);

  /// ff:ff:ff:ff:ff:ff.
  [[nodiscard]] static constexpr MacAddress broadcast() {
    return MacAddress({0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
  }

  /// Globally-unique random address under the given 3-byte OUI.
  [[nodiscard]] static MacAddress random(util::Rng& rng,
                                         std::array<std::uint8_t, 3> oui);

  /// Randomized privacy address: locally-administered bit set, unicast.
  [[nodiscard]] static MacAddress random_local(util::Rng& rng);

  [[nodiscard]] const std::array<std::uint8_t, 6>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool is_broadcast() const noexcept { return *this == broadcast(); }
  [[nodiscard]] bool is_multicast() const noexcept { return (bytes_[0] & 0x01) != 0; }
  [[nodiscard]] bool is_locally_administered() const noexcept {
    return (bytes_[0] & 0x02) != 0;
  }
  /// Packs the six bytes into the low 48 bits (for hashing / map keys).
  [[nodiscard]] constexpr std::uint64_t to_u64() const noexcept {
    std::uint64_t v = 0;
    for (const std::uint8_t b : bytes_) v = (v << 8) | b;
    return v;
  }
  /// Inverse of to_u64 (bits above 48 are ignored).
  [[nodiscard]] static constexpr MacAddress from_u64(std::uint64_t v) noexcept {
    std::array<std::uint8_t, 6> bytes{};
    for (std::size_t i = 0; i < 6; ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * (5 - i)));
    }
    return MacAddress(bytes);
  }

  auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<std::uint8_t, 6> bytes_{};
};

/// The project's MAC hasher: full-avalanche mix of the 48-bit key. This is
/// the one hash both the ObservationStore's device index and Riptide's shard
/// partitioner use, so a device lands in the same shard that owns its
/// unordered_map bucket spread (libstdc++ std::hash<uint64_t> is the
/// identity, which clusters same-OUI devices).
struct MacHasher {
  [[nodiscard]] std::size_t operator()(const MacAddress& mac) const noexcept {
    return static_cast<std::size_t>(util::mix64(mac.to_u64()));
  }
};

}  // namespace mm::net80211

template <>
struct std::hash<mm::net80211::MacAddress> {
  std::size_t operator()(const mm::net80211::MacAddress& mac) const noexcept {
    return mm::net80211::MacHasher{}(mac);
  }
};
