#include "net80211/frames.h"

#include <algorithm>

#include "net80211/crc32.h"
#include "util/endian.h"

namespace mm::net80211 {

namespace {

namespace le = util::le;

void put_mac(std::vector<std::uint8_t>& out, const MacAddress& mac) {
  out.insert(out.end(), mac.bytes().begin(), mac.bytes().end());
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool take_u8(std::uint8_t& v) noexcept {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  [[nodiscard]] bool take_u16(std::uint16_t& v) noexcept {
    if (remaining() < 2) return false;
    v = le::load_u16(data_.data() + pos_);
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool take_u64(std::uint64_t& v) noexcept {
    if (remaining() < 8) return false;
    v = le::load_u64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  [[nodiscard]] bool take_mac(MacAddress& mac) noexcept {
    if (remaining() < 6) return false;
    std::array<std::uint8_t, 6> bytes{};
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), 6, bytes.begin());
    mac = MacAddress(bytes);
    pos_ += 6;
    return true;
  }
  [[nodiscard]] bool take_bytes(std::size_t n, std::vector<std::uint8_t>& out) {
    if (remaining() < n) return false;
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

bool has_fixed_beacon_fields(ManagementSubtype s) {
  return s == ManagementSubtype::kBeacon || s == ManagementSubtype::kProbeResponse;
}

}  // namespace

const char* subtype_name(ManagementSubtype subtype) noexcept {
  switch (subtype) {
    case ManagementSubtype::kAssociationRequest:
      return "association-request";
    case ManagementSubtype::kAssociationResponse:
      return "association-response";
    case ManagementSubtype::kProbeRequest:
      return "probe-request";
    case ManagementSubtype::kProbeResponse:
      return "probe-response";
    case ManagementSubtype::kBeacon:
      return "beacon";
    case ManagementSubtype::kDeauthentication:
      return "deauthentication";
    case ManagementSubtype::kDataNull:
      return "data-null";
  }
  return "unknown";
}

namespace ie {

InformationElement ssid(std::string_view name) {
  InformationElement element;
  element.id = kSsid;
  element.payload.assign(name.begin(), name.end());
  return element;
}

InformationElement supported_rates_bg() {
  // Basic rates flagged with the high bit (1, 2, 5.5, 11 Mbps) + OFDM rates.
  return {kSupportedRates, {0x82, 0x84, 0x8b, 0x96, 0x24, 0x30, 0x48, 0x6c}};
}

InformationElement ds_channel(int channel) {
  return {kDsParameterSet, {static_cast<std::uint8_t>(channel)}};
}

}  // namespace ie

std::optional<std::string> ManagementFrame::ssid() const {
  const InformationElement* element = find_ie(ie::kSsid);
  if (element == nullptr) return std::nullopt;
  return std::string(element->payload.begin(), element->payload.end());
}

std::optional<int> ManagementFrame::ds_channel() const {
  const InformationElement* element = find_ie(ie::kDsParameterSet);
  if (element == nullptr || element->payload.empty()) return std::nullopt;
  return static_cast<int>(element->payload.front());
}

const InformationElement* ManagementFrame::find_ie(std::uint8_t id) const noexcept {
  for (const InformationElement& element : ies) {
    if (element.id == id) return &element;
  }
  return nullptr;
}

std::vector<std::uint8_t> ManagementFrame::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  if (subtype == ManagementSubtype::kDataNull) {
    // Null-function data frame: type 2, subtype 4.
    out.push_back(0x48);
  } else {
    // Frame control: version 0, type 0 (management), subtype.
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(subtype) << 4));
  }
  out.push_back(0x00);  // flags
  le::append_u16(out, 0x0000);  // duration
  put_mac(out, addr1);
  put_mac(out, addr2);
  put_mac(out, addr3);
  le::append_u16(out, static_cast<std::uint16_t>(sequence << 4));  // fragment 0

  if (has_fixed_beacon_fields(subtype)) {
    le::append_u64(out, timestamp_us);
    le::append_u16(out, beacon_interval_tu);
    le::append_u16(out, capability);
  } else if (subtype == ManagementSubtype::kDeauthentication) {
    le::append_u16(out, reason_code);
  } else if (subtype == ManagementSubtype::kAssociationRequest) {
    le::append_u16(out, capability);
    le::append_u16(out, listen_interval);
  } else if (subtype == ManagementSubtype::kAssociationResponse) {
    le::append_u16(out, capability);
    le::append_u16(out, status_code);
    le::append_u16(out, association_id);
  }

  for (const InformationElement& element : ies) {
    out.push_back(element.id);
    out.push_back(static_cast<std::uint8_t>(element.payload.size()));
    out.insert(out.end(), element.payload.begin(), element.payload.end());
  }

  le::append_u32(out, crc32(out));
  return out;
}

util::Result<ManagementFrame> ManagementFrame::parse(std::span<const std::uint8_t> bytes,
                                                     bool verify_fcs) {
  constexpr std::size_t kHeaderLen = 24;
  constexpr std::size_t kFcsLen = 4;
  if (bytes.size() < kHeaderLen + kFcsLen) {
    return util::Result<ManagementFrame>::failure("frame too short");
  }

  if (verify_fcs) {
    const auto body = bytes.subspan(0, bytes.size() - kFcsLen);
    const auto fcs_bytes = bytes.subspan(bytes.size() - kFcsLen);
    if (crc32(body) != le::load_u32(fcs_bytes.data())) {
      return util::Result<ManagementFrame>::failure("FCS mismatch");
    }
  }

  Cursor cur(bytes.subspan(0, bytes.size() - kFcsLen));
  std::uint8_t fc0 = 0;
  std::uint8_t fc1 = 0;
  std::uint16_t duration = 0;
  ManagementFrame frame;
  if (!cur.take_u8(fc0) || !cur.take_u8(fc1) || !cur.take_u16(duration)) {
    return util::Result<ManagementFrame>::failure("truncated header");
  }
  if ((fc0 & 0x03) != 0) return util::Result<ManagementFrame>::failure("not protocol version 0");
  const int frame_type = (fc0 >> 2) & 0x03;
  if (frame_type == 2) {
    // Data plane: only the null-function keep-alive is modeled.
    if ((fc0 >> 4) != 4) {
      return util::Result<ManagementFrame>::failure("unsupported data subtype");
    }
    frame.subtype = ManagementSubtype::kDataNull;
  } else if (frame_type != 0) {
    return util::Result<ManagementFrame>::failure("not a management or data frame");
  } else {
    const auto subtype = static_cast<ManagementSubtype>(fc0 >> 4);
    switch (subtype) {
      case ManagementSubtype::kAssociationRequest:
      case ManagementSubtype::kAssociationResponse:
      case ManagementSubtype::kProbeRequest:
      case ManagementSubtype::kProbeResponse:
      case ManagementSubtype::kBeacon:
      case ManagementSubtype::kDeauthentication:
        frame.subtype = subtype;
        break;
      default:
        return util::Result<ManagementFrame>::failure("unsupported management subtype");
    }
  }

  std::uint16_t seq_ctl = 0;
  if (!cur.take_mac(frame.addr1) || !cur.take_mac(frame.addr2) ||
      !cur.take_mac(frame.addr3) || !cur.take_u16(seq_ctl)) {
    return util::Result<ManagementFrame>::failure("truncated addresses");
  }
  frame.sequence = static_cast<std::uint16_t>(seq_ctl >> 4);

  if (has_fixed_beacon_fields(frame.subtype)) {
    if (!cur.take_u64(frame.timestamp_us) || !cur.take_u16(frame.beacon_interval_tu) ||
        !cur.take_u16(frame.capability)) {
      return util::Result<ManagementFrame>::failure("truncated fixed fields");
    }
  } else if (frame.subtype == ManagementSubtype::kDeauthentication) {
    if (!cur.take_u16(frame.reason_code)) {
      return util::Result<ManagementFrame>::failure("truncated reason code");
    }
  } else if (frame.subtype == ManagementSubtype::kAssociationRequest) {
    if (!cur.take_u16(frame.capability) || !cur.take_u16(frame.listen_interval)) {
      return util::Result<ManagementFrame>::failure("truncated association request");
    }
  } else if (frame.subtype == ManagementSubtype::kAssociationResponse) {
    if (!cur.take_u16(frame.capability) || !cur.take_u16(frame.status_code) ||
        !cur.take_u16(frame.association_id)) {
      return util::Result<ManagementFrame>::failure("truncated association response");
    }
  }

  while (cur.remaining() > 0) {
    InformationElement element;
    std::uint8_t length = 0;
    if (!cur.take_u8(element.id) || !cur.take_u8(length)) {
      return util::Result<ManagementFrame>::failure("truncated IE header");
    }
    if (!cur.take_bytes(length, element.payload)) {
      return util::Result<ManagementFrame>::failure("IE length exceeds frame");
    }
    frame.ies.push_back(std::move(element));
  }
  return frame;
}

ManagementFrame make_beacon(const MacAddress& bssid, std::string_view ssid, int channel,
                            std::uint64_t timestamp_us, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kBeacon;
  frame.addr1 = MacAddress::broadcast();
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.timestamp_us = timestamp_us;
  frame.ies = {ie::ssid(ssid), ie::supported_rates_bg(), ie::ds_channel(channel)};
  return frame;
}

ManagementFrame make_probe_request(const MacAddress& client,
                                   std::optional<std::string_view> ssid,
                                   std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kProbeRequest;
  frame.addr1 = MacAddress::broadcast();
  frame.addr2 = client;
  frame.addr3 = MacAddress::broadcast();
  frame.sequence = sequence;
  frame.ies = {ie::ssid(ssid.value_or("")), ie::supported_rates_bg()};
  return frame;
}

ManagementFrame make_probe_response(const MacAddress& bssid, const MacAddress& client,
                                    std::string_view ssid, int channel,
                                    std::uint64_t timestamp_us, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kProbeResponse;
  frame.addr1 = client;
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.timestamp_us = timestamp_us;
  frame.ies = {ie::ssid(ssid), ie::supported_rates_bg(), ie::ds_channel(channel)};
  return frame;
}

ManagementFrame make_association_request(const MacAddress& client, const MacAddress& bssid,
                                         std::string_view ssid, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kAssociationRequest;
  frame.addr1 = bssid;
  frame.addr2 = client;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.ies = {ie::ssid(ssid), ie::supported_rates_bg()};
  return frame;
}

ManagementFrame make_association_response(const MacAddress& bssid, const MacAddress& client,
                                          std::uint16_t status,
                                          std::uint16_t association_id,
                                          std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kAssociationResponse;
  frame.addr1 = client;
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.status_code = status;
  frame.association_id = association_id;
  frame.ies = {ie::supported_rates_bg()};
  return frame;
}

ManagementFrame make_data_null(const MacAddress& client, const MacAddress& bssid,
                               std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kDataNull;
  frame.addr1 = bssid;
  frame.addr2 = client;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  return frame;
}

ManagementFrame make_deauth(const MacAddress& target, const MacAddress& bssid,
                            std::uint16_t reason, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kDeauthentication;
  frame.addr1 = target;
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.reason_code = reason;
  return frame;
}

}  // namespace mm::net80211
