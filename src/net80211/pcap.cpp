#include "net80211/pcap.h"

#include <array>
#include <vector>

#include "util/endian.h"

namespace mm::net80211 {

namespace {
constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;

void write_bytes(std::ofstream& out, std::span<const std::uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool take_u32(std::ifstream& in, std::uint32_t& v) {
  std::array<std::uint8_t, 4> bytes{};
  if (!in.read(reinterpret_cast<char*>(bytes.data()), bytes.size())) return false;
  v = util::le::load_u32(bytes.data());
  return true;
}

bool take_u16(std::ifstream& in, std::uint16_t& v) {
  std::array<std::uint8_t, 2> bytes{};
  if (!in.read(reinterpret_cast<char*>(bytes.data()), bytes.size())) return false;
  v = util::le::load_u16(bytes.data());
  return true;
}
}  // namespace

PcapWriter::PcapWriter(const std::filesystem::path& path, std::uint32_t linktype,
                       std::uint32_t snaplen)
    : out_(path, std::ios::binary), snaplen_(snaplen) {
  if (!out_) {
    error_ = "pcap: cannot create " + path.string();
    return;
  }
  std::vector<std::uint8_t> header;
  util::le::append_u32(header, kMagicUsec);
  util::le::append_u16(header, 2);  // version major
  util::le::append_u16(header, 4);  // version minor
  util::le::append_u32(header, 0);  // thiszone
  util::le::append_u32(header, 0);  // sigfigs
  util::le::append_u32(header, snaplen_);
  util::le::append_u32(header, linktype);
  write_bytes(out_, header);
  if (!out_) error_ = "pcap: failed to write global header to " + path.string();
}

bool PcapWriter::write(std::uint64_t timestamp_us, std::span<const std::uint8_t> frame) {
  if (!ok()) {
    ++write_failures_;
    return false;
  }
  const std::size_t incl = std::min<std::size_t>(frame.size(), snaplen_);
  std::array<std::uint8_t, 16> record_header;
  util::le::store_u32(record_header.data(), static_cast<std::uint32_t>(timestamp_us / 1000000));
  util::le::store_u32(record_header.data() + 4,
                      static_cast<std::uint32_t>(timestamp_us % 1000000));
  util::le::store_u32(record_header.data() + 8, static_cast<std::uint32_t>(incl));
  util::le::store_u32(record_header.data() + 12, static_cast<std::uint32_t>(frame.size()));
  write_bytes(out_, record_header);
  write_bytes(out_, frame.first(incl));
  if (!out_) {
    error_ = "pcap: record write failed";
    ++write_failures_;
    return false;
  }
  ++records_;
  return true;
}

PcapReader::PcapReader(const std::filesystem::path& path) : in_(path, std::ios::binary) {
  if (!in_) {
    error_ = "pcap: cannot open " + path.string();
    return;
  }
  std::uint32_t magic = 0;
  if (!take_u32(in_, magic)) {
    error_ = "pcap: missing global header";
    return;
  }
  if (magic == kMagicUsecSwapped) {
    error_ = "pcap: big-endian capture files are not supported";
    return;
  }
  if (magic == kMagicNsec) {
    error_ = "pcap: nanosecond-resolution captures are not supported";
    return;
  }
  if (magic != kMagicUsec) {
    error_ = "pcap: bad magic number";
    return;
  }
  std::uint16_t major = 0;
  std::uint16_t minor = 0;
  std::uint32_t skip = 0;
  if (!take_u16(in_, major) || !take_u16(in_, minor) || !take_u32(in_, skip) ||
      !take_u32(in_, skip) || !take_u32(in_, snaplen_) || !take_u32(in_, linktype_)) {
    error_ = "pcap: truncated global header";
    return;
  }
  if (major != 2) error_ = "pcap: unsupported version";
}

std::optional<PcapRecord> PcapReader::next() {
  if (!ok() || done_) return std::nullopt;
  std::uint32_t ts_sec = 0;
  if (!take_u32(in_, ts_sec)) return std::nullopt;  // clean EOF
  std::uint32_t ts_usec = 0;
  std::uint32_t incl_len = 0;
  std::uint32_t orig_len = 0;
  if (!take_u32(in_, ts_usec) || !take_u32(in_, incl_len) || !take_u32(in_, orig_len)) {
    done_ = truncated_ = true;
    return std::nullopt;
  }
  if (incl_len > kMaxSaneRecordBytes) {
    // Corrupt framing: the length field itself is damaged, and without it
    // there is no way to find the next record boundary. Quarantine and end
    // iteration rather than trusting a multi-gigabyte allocation.
    ++quarantined_;
    done_ = true;
    return std::nullopt;
  }
  PcapRecord record;
  record.timestamp_us = static_cast<std::uint64_t>(ts_sec) * 1000000 + ts_usec;
  record.data.resize(incl_len);
  if (!in_.read(reinterpret_cast<char*>(record.data.data()),
                static_cast<std::streamsize>(incl_len))) {
    done_ = truncated_ = true;
    return std::nullopt;
  }
  return record;
}

std::vector<PcapRecord> PcapReader::read_all() {
  std::vector<PcapRecord> records;
  while (auto record = next()) records.push_back(std::move(*record));
  return records;
}

}  // namespace mm::net80211
