#include "sim/world.h"

#include <algorithm>

#include "sim/ap.h"
#include "sim/mobile.h"

namespace mm::sim {

World::World(Config config)
    : rng_(config.seed),
      propagation_(std::move(config.propagation)),
      config_(config) {
  if (!propagation_) propagation_ = std::make_shared<rf::FreeSpaceModel>();
}

World::~World() = default;

AccessPoint* World::add_access_point(std::unique_ptr<AccessPoint> ap) {
  AccessPoint* raw = ap.get();
  aps_.push_back(std::move(ap));
  register_receiver(raw);
  raw->attach(*this);
  return raw;
}

MobileDevice* World::add_mobile(std::unique_ptr<MobileDevice> mobile) {
  MobileDevice* raw = mobile.get();
  mobiles_.push_back(std::move(mobile));
  register_receiver(raw);
  raw->attach(*this);
  return raw;
}

void World::register_receiver(FrameReceiver* receiver) {
  if (receiver == nullptr) return;
  if (slot_of_.count(receiver) != 0) return;
  const std::size_t slot = slots_.size();
  DeliveryInterest interest = receiver->delivery_interest();
  // Culling needs a pinned antenna position; without one the other fields
  // are unusable promises.
  if (!interest.fixed_position) interest = {};
  slots_.push_back({receiver, interest, true});
  slot_of_.emplace(receiver, slot);
  ++active_count_;

  if (interest.fixed_position && interest.max_distance_m) {
    grid_.insert(slot, *interest.fixed_position);
    max_interest_radius_ = std::max(max_interest_radius_, *interest.max_distance_m);
  } else if (interest.fixed_position && interest.min_rssi_dbm) {
    floor_slots_.push_back(slot);
  } else {
    always_slots_.push_back(slot);
  }
}

void World::unregister_receiver(FrameReceiver* receiver) {
  const auto it = slot_of_.find(receiver);
  if (it == slot_of_.end()) return;
  const std::size_t slot = it->second;
  slot_of_.erase(it);
  slots_[slot].active = false;
  --active_count_;
  grid_.erase(slot);  // no-op for non-grid slots
  const auto drop = [slot](std::vector<std::size_t>& v) {
    v.erase(std::remove(v.begin(), v.end(), slot), v.end());
  };
  drop(always_slots_);
  drop(floor_slots_);
  // max_interest_radius_ is intentionally not shrunk: a stale maximum only
  // widens the grid query, never changes its filtered result.
}

void World::deliver(FrameReceiver& receiver, const net80211::ManagementFrame& frame,
                    const TxRadio& tx, double freq_mhz) {
  const geo::Vec2 rx_pos = receiver.position();
  const double loss = propagation_->path_loss_db(tx.position, tx.height_m, rx_pos,
                                                 receiver.antenna_height_m(), freq_mhz);
  RxInfo info;
  info.rssi_dbm = tx.power_dbm + tx.antenna_gain_dbi - loss;
  info.channel = tx.channel;
  info.time = queue_.now();
  info.tx_position = tx.position;
  info.distance_m = tx.position.distance_to(rx_pos);
  receiver.on_air_frame(frame, info);
}

void World::transmit(const net80211::ManagementFrame& frame, const TxRadio& tx) {
  ++tx_count_;
  const double freq_mhz = rf::channel_center_mhz(tx.channel);

  if (config_.delivery == DeliveryMode::kScan) {
    for (const ReceiverSlot& slot : slots_) {
      if (!slot.active || slot.receiver == tx.sender) continue;
      deliver(*slot.receiver, frame, tx, freq_mhz);
    }
    return;
  }

  // Indexed delivery. Candidates from the three interest classes are merged
  // back into ascending slot (= registration) order: cross-receiver delivery
  // order matters because handlers schedule follow-up events (probe
  // responses) whose queue order — and therefore the downstream RNG stream —
  // reflects it.
  candidates_.clear();
  candidates_.insert(candidates_.end(), always_slots_.begin(), always_slots_.end());

  if (!grid_.empty()) {
    grid_.query_disc(tx.position, max_interest_radius_, hits_);
    for (const geo::SpatialIndex::Id id : hits_) {
      const ReceiverSlot& slot = slots_[id];
      // rx.distance_m is recomputed from the same endpoints at delivery; the
      // receiver's no-op test is `distance_m > max`, so <= must deliver.
      const double d = tx.position.distance_to(*slot.interest.fixed_position);
      if (d <= *slot.interest.max_distance_m) candidates_.push_back(id);
    }
  }

  if (!floor_slots_.empty()) {
    const double eirp_dbm = tx.power_dbm + tx.antenna_gain_dbi;
    for (const std::size_t id : floor_slots_) {
      const ReceiverSlot& slot = slots_[id];
      // Beyond max_range the model guarantees loss > eirp - floor, i.e. the
      // delivered rssi would sit below the receiver's declared no-op floor.
      const double range =
          propagation_->max_range_m(eirp_dbm - *slot.interest.min_rssi_dbm, freq_mhz);
      const double d = tx.position.distance_to(*slot.interest.fixed_position);
      if (d <= range) candidates_.push_back(id);
    }
  }

  std::sort(candidates_.begin(), candidates_.end());
  culled_count_ += active_count_ - candidates_.size();
  for (const std::size_t id : candidates_) {
    const ReceiverSlot& slot = slots_[id];
    if (slot.receiver == tx.sender) continue;
    deliver(*slot.receiver, frame, tx, freq_mhz);
  }
}

}  // namespace mm::sim
