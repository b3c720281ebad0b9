// What `mmctl live` and `mmctl net-recv` share around a Riptide run: the
// tracker built from their common flags, and the report they print and
// write — the same shard and device tables on stdout and the same pipeline
// keys in --stats-json — so the two commands cannot drift apart.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "net/wire_codec.h"
#include "pipeline/live_tracker.h"
#include "util/flags.h"
#include "util/json.h"

namespace mm::tools {

/// The --apdb CSV in `frame`; nullopt after printing why ("<who>: --apdb: ...").
[[nodiscard]] std::optional<marauder::ApDatabase> load_apdb(const util::Flags& flags,
                                                            const std::string& who,
                                                            const geo::EnuFrame& frame);

/// Fills `config` from --shards, --ring-capacity, --default-radius,
/// --reject-outliers, --drop-policy and the Phoenix durability flags
/// (--wal-dir, --checkpoint-secs, --no-fsync; --recover needs --wal-dir).
/// Returns 0, or 2 after printing the usage error.
[[nodiscard]] int tracker_config_from_flags(const util::Flags& flags, const std::string& who,
                                            pipeline::LiveTrackerConfig& config);

/// --recover: restores `tracker` from its WAL directory and prints what came
/// back; false after printing why.
[[nodiscard]] bool recover_tracker(pipeline::LiveTracker& tracker, const std::string& who);

/// Top-level pipeline counters plus the "durability" block, written as
/// members of the object the caller has open.
void write_pipeline_json(util::JsonWriter& json, const pipeline::PipelineStats& stats);

/// The "shards" array: one object per shard with its frame, ring, WAL,
/// checkpoint and supervision counters.
void write_shards_json(util::JsonWriter& json, const pipeline::PipelineStats& stats);

/// Every WireDecoderStats counter as members of the object the caller has
/// open (a net-recv feed, or wps-serve's "wire" block).
void write_wire_json(util::JsonWriter& json, const net::WireDecoderStats& wire);

/// Per-shard throughput, ring, WAL and health table.
void print_shard_table(const pipeline::PipelineStats& stats);

/// The live position of every tracked device, MAC-sorted, then the
/// "tracking N devices live" line.
void print_device_table(const pipeline::LiveTracker& tracker, const geo::EnuFrame& frame);

/// Writes a --stats-json/--out file through util::write_json_file and says
/// so on stdout; on failure prints "cannot write <path>" to stderr and
/// returns false, which the command turns into exit status 1.
[[nodiscard]] bool write_report_file(const std::string& path,
                                     const std::function<void(util::JsonWriter&)>& fill);

}  // namespace mm::tools
