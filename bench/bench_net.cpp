// Lattice sensor-fabric sweep: goodput and recovery across link loss rates
// and parity overheads (DESIGN.md §12). For each (loss, fec-k) cell the
// bench encodes one synthetic event stream, drags the wire bytes through the
// seeded link simulator, decodes what survives, and checks the fabric's
// correctness invariant: every event the decoder releases is bit-identical
// to the event that was sent under that sequence — recovery is exact or it
// is counted as a gap, never silently wrong. At 0% loss the released stream
// must additionally be *complete*. Either violation exits nonzero (FAIL);
// goodput is advisory (WARN).
//
//   bench_net [--events N] [--smoke] [--seed S] [--out BENCH_net.json]
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "capture/frame_event.h"
#include "fault/fault_plan.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace mm;

std::vector<capture::FrameEvent> make_events(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<capture::FrameEvent> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    capture::FrameEvent& ev = events[i];
    ev.stream_seq = i + 1;  // the decoder releases events stamped with their wire seq
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    ev.kind = kind == 0   ? capture::FrameEventKind::kProbeRequest
              : kind == 1 ? capture::FrameEventKind::kBeacon
                          : capture::FrameEventKind::kContact;
    ev.device = net80211::MacAddress::from_u64(
        0x0016f0000000ULL + static_cast<std::uint64_t>(rng.uniform_int(0, 511)));
    ev.ap = net80211::MacAddress::from_u64(
        0x00215c000000ULL + static_cast<std::uint64_t>(rng.uniform_int(0, 169)));
    ev.time_s = static_cast<double>(i) * 1e-4;
    ev.rssi_dbm = rng.uniform(-90.0, -40.0);
    ev.channel = static_cast<std::int16_t>(rng.uniform_int(1, 11));
    if (ev.kind == capture::FrameEventKind::kProbeRequest && rng.bernoulli(0.5)) {
      ev.has_ssid = true;
      ev.ssid_len = 4;
      std::memcpy(ev.ssid, "test", 4);
    }
  }
  return events;
}

bool events_equal(const capture::FrameEvent& a, const capture::FrameEvent& b) {
  return a.kind == b.kind && a.stream_seq == b.stream_seq && a.device == b.device &&
         a.ap == b.ap && a.time_s == b.time_s && a.rssi_dbm == b.rssi_dbm &&
         a.channel == b.channel && a.has_ssid == b.has_ssid && a.ssid_len == b.ssid_len &&
         std::memcmp(a.ssid, b.ssid, capture::FrameEvent::kMaxSsid) == 0;
}

/// Walks well-formed encoder output frame by frame (length field at header
/// offset 18) so the link damages frames, not arbitrary chunks.
void send_frames(net::LinkSimulator& link, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off + net::kWireHeaderBytes <= bytes.size()) {
    const std::size_t len = static_cast<std::size_t>(bytes[off + 18]) |
                            (static_cast<std::size_t>(bytes[off + 19]) << 8);
    const std::size_t frame_len = net::kWireHeaderBytes + len;
    link.send({bytes.data() + off, frame_len});
    off += frame_len;
  }
}

struct CellResult {
  double loss = 0.0;
  int fec_k = 0;
  std::uint64_t wire_bytes = 0;       ///< bytes offered to the link
  double overhead_pct = 0.0;          ///< parity bytes / data bytes
  std::uint64_t delivered = 0;        ///< events released by the decoder
  std::uint64_t recovered = 0;
  std::uint64_t gaps = 0;
  std::uint64_t mismatches = 0;       ///< released events differing from sent
  double elapsed_s = 0.0;             ///< decode-side wall time
  double events_per_sec = 0.0;        ///< decode goodput
};

CellResult run_cell(const std::vector<capture::FrameEvent>& events,
                    const std::vector<std::uint8_t>& wire, double loss, int fec_k,
                    const net::FecEncoderStats& enc, std::uint64_t seed) {
  CellResult r;
  r.loss = loss;
  r.fec_k = fec_k;
  r.wire_bytes = wire.size();
  r.overhead_pct = enc.data_bytes > 0 ? 100.0 * static_cast<double>(enc.parity_bytes) /
                                            static_cast<double>(enc.data_bytes)
                                      : 0.0;

  std::vector<std::uint8_t> damaged;
  if (loss > 0.0) {
    fault::FaultPlan plan;
    plan.drop_rate = loss;
    plan.seed = seed;
    net::LinkSimulator link(plan);
    send_frames(link, wire);
    link.flush();
    damaged = link.take();
  } else {
    damaged = wire;
  }

  const auto t0 = std::chrono::steady_clock::now();
  net::WireDecoder decoder;
  net::FecDecoder fec;
  capture::FrameEvent out;
  constexpr std::size_t kChunk = 4096;
  for (std::size_t off = 0; off < damaged.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, damaged.size() - off);
    decoder.feed({damaged.data() + off, n});
    net::WireFrame frame;
    while (decoder.next(frame)) fec.push(frame);
    while (fec.next(out)) {
      ++r.delivered;
      if (out.stream_seq == 0 || out.stream_seq > events.size() ||
          !events_equal(out, events[out.stream_seq - 1])) {
        ++r.mismatches;
      }
    }
  }
  fec.finish();
  while (fec.next(out)) {
    ++r.delivered;
    if (out.stream_seq == 0 || out.stream_seq > events.size() ||
        !events_equal(out, events[out.stream_seq - 1])) {
      ++r.mismatches;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  r.recovered = fec.stats().recovered;
  r.gaps = fec.stats().unrecoverable_gaps;
  r.events_per_sec =
      r.elapsed_s > 0.0 ? static_cast<double>(r.delivered) / r.elapsed_s : 0.0;
  return r;
}

bool write_json(const std::string& path, std::size_t events,
                const std::vector<CellResult>& results) {
  return util::write_json_file(path, [&](util::JsonWriter& json) {
    json.begin_object()
        .field("benchmark", "net")
        .field("events", events)
        .begin_array("runs");
    for (const CellResult& r : results) {
      json.begin_object()
          .field("loss", r.loss)
          .field("fec_k", r.fec_k)
          .field("wire_bytes", r.wire_bytes)
          .field("overhead_pct", r.overhead_pct)
          .field("delivered", r.delivered)
          .field("recovered", r.recovered)
          .field("gaps", r.gaps)
          .field("mismatches", r.mismatches)
          .field("elapsed_s", r.elapsed_s)
          .field("events_per_sec", r.events_per_sec)
          .end_object();
    }
    json.end_array().end_object();
  });
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const auto events_n =
      static_cast<std::size_t>(flags.get_int("events", smoke ? 5'000 : 200'000));
  const std::uint64_t seed = flags.get_seed(0x1a77);
  const std::string out_path = flags.get("out", "BENCH_net.json");

  const auto events = make_events(events_n, seed);

  bool fail = false;
  std::vector<CellResult> results;
  for (const int fec_k : {0, 4, 8, 16}) {
    // Encode once per overhead setting; every loss cell replays these bytes.
    net::FecEncoder encoder(1, static_cast<std::size_t>(fec_k));
    std::vector<std::uint8_t> wire;
    for (std::size_t i = 0; i < events.size(); ++i) {
      encoder.push(events[i].stream_seq, events[i], wire);
    }
    encoder.flush(wire);

    for (const double loss : {0.0, 0.01, 0.05, 0.10}) {
      const CellResult r = run_cell(events, wire, loss, fec_k, encoder.stats(),
                                    util::hash_combine(seed, static_cast<std::uint64_t>(
                                                                 loss * 1000.0)));
      results.push_back(r);
      std::cout << "loss=" << loss << " k=" << fec_k << "  " << r.delivered << "/"
                << events_n << " delivered, " << r.recovered << " recovered, " << r.gaps
                << " gaps, " << r.mismatches << " mismatches, "
                << static_cast<std::uint64_t>(r.events_per_sec) << " events/s ("
                << r.overhead_pct << "% overhead)\n";
      if (r.mismatches > 0) {
        std::cout << "FAIL: released events differ from sent events at loss=" << loss
                  << " k=" << fec_k << "\n";
        fail = true;
      }
      if (loss == 0.0 && r.delivered != events_n) {
        std::cout << "FAIL: lossless stream incomplete (" << r.delivered << "/" << events_n
                  << ") at k=" << fec_k << "\n";
        fail = true;
      }
    }
  }

  if (!write_json(out_path, events_n, results)) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  double min_goodput = -1.0;
  for (const CellResult& r : results) {
    if (min_goodput < 0.0 || r.events_per_sec < min_goodput) min_goodput = r.events_per_sec;
  }
  const bool met = min_goodput >= 100'000.0;
  std::cout << (met ? "PASS" : "WARN") << ": worst-cell decode goodput "
            << static_cast<std::uint64_t>(min_goodput) << " events/s (target 100000)\n";
  if (fail) {
    std::cout << "FAIL: fabric correctness invariant violated\n";
    return 1;
  }
  std::cout << "PASS: every released event bit-identical to its sent event\n";
  return 0;
}
