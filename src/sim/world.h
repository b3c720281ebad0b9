// The simulated wireless world: a shared medium that delivers every
// transmitted 802.11 management frame to every registered receiver with a
// per-link receive level from the propagation model. Receivers (APs, mobile
// devices, and the capture layer's sniffers) decide for themselves what they
// can decode — the sniffer applies its receiver-chain link budget, while
// AP<->mobile communicability follows the paper's worst-case disc model
// (Section III-A: the sphere model is deliberately used as the bound the
// localization algorithms reason over).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geo/spatial_index.h"
#include "geo/vec2.h"
#include "net80211/frames.h"
#include "rf/channels.h"
#include "rf/propagation.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace mm::sim {

/// Per-delivery reception metadata.
struct RxInfo {
  double rssi_dbm = -200.0;  ///< isotropic receive level (before rx antenna gain)
  rf::Channel channel;       ///< transmitter's channel
  SimTime time = 0.0;
  geo::Vec2 tx_position;
  double distance_m = 0.0;
};

/// Transmitter-side parameters for one frame.
struct TxRadio {
  geo::Vec2 position;
  double height_m = 1.5;
  double power_dbm = 15.0;
  double antenna_gain_dbi = 0.0;
  rf::Channel channel;
  const void* sender = nullptr;  ///< excluded from delivery
};

/// A receiver's standing promise about which deliveries it can possibly act
/// on, consumed by the medium's Atlas index (DESIGN.md §11). The default —
/// everything empty — means "deliver every frame" and is always safe. A
/// receiver may only tighten the promise when the skipped delivery is a
/// provable no-op: same counters, same RNG stream, same scheduled events as
/// if on_air_frame had run and returned.
struct DeliveryInterest {
  /// The receiver's antenna position, valid for its whole registration.
  /// Required for any culling; receivers that move stay unset (always
  /// delivered).
  std::optional<geo::Vec2> fixed_position;
  /// on_air_frame is a no-op whenever rx.distance_m exceeds this (the AP
  /// service-disc model).
  std::optional<double> max_distance_m;
  /// on_air_frame is a no-op whenever rx.rssi_dbm falls below this (the
  /// sniffer's hard decode floor). Culled via the propagation model's
  /// conservative max_range_m bound; models that cannot bound loss disable
  /// this culling entirely.
  std::optional<double> min_rssi_dbm;
};

class FrameReceiver {
 public:
  virtual ~FrameReceiver() = default;
  [[nodiscard]] virtual geo::Vec2 position() const = 0;
  [[nodiscard]] virtual double antenna_height_m() const = 0;
  /// Sampled once at registration; see DeliveryInterest.
  [[nodiscard]] virtual DeliveryInterest delivery_interest() const { return {}; }
  virtual void on_air_frame(const net80211::ManagementFrame& frame, const RxInfo& rx) = 0;
};

class AccessPoint;
class MobileDevice;

/// How transmit() chooses delivery candidates. Both modes produce the same
/// delivered frame stream bit for bit (asserted in atlas_equivalence_test);
/// kScan exists as the oracle the indexed path is compared against.
enum class DeliveryMode {
  kScan,     ///< offer every frame to every receiver (the original broadcast)
  kIndexed,  ///< cull provably-no-op receivers through the Atlas grid
};

/// Owns the event queue, RNG, propagation model, and all simulated entities.
class World {
 public:
  struct Config {
    std::uint64_t seed = 1;
    /// Defaults to a clutter-free free-space model when null.
    std::shared_ptr<const rf::PropagationModel> propagation;
    DeliveryMode delivery = DeliveryMode::kIndexed;
  };

  explicit World(Config config);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }
  [[nodiscard]] const rf::PropagationModel& propagation() const noexcept {
    return *propagation_;
  }

  /// Takes ownership; the entity is attached (scheduling its behaviour) and
  /// registered with the medium. Returns a stable non-owning pointer.
  AccessPoint* add_access_point(std::unique_ptr<AccessPoint> ap);
  MobileDevice* add_mobile(std::unique_ptr<MobileDevice> mobile);

  /// Non-owning receivers (sniffers). The caller keeps them alive until
  /// unregistered or the world is destroyed.
  void register_receiver(FrameReceiver* receiver);
  void unregister_receiver(FrameReceiver* receiver);

  [[nodiscard]] const std::vector<std::unique_ptr<AccessPoint>>& access_points() const {
    return aps_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<MobileDevice>>& mobiles() const {
    return mobiles_;
  }

  /// Broadcasts a frame over the medium to all receivers except the sender.
  void transmit(const net80211::ManagementFrame& frame, const TxRadio& tx);

  /// Runs the simulation to `t_end` seconds.
  void run_until(SimTime t_end) { queue_.run_until(t_end); }

  [[nodiscard]] std::uint64_t frames_transmitted() const noexcept { return tx_count_; }
  /// Deliveries skipped because the receiver's interest proved them no-ops
  /// (always 0 in kScan mode).
  [[nodiscard]] std::uint64_t deliveries_culled() const noexcept { return culled_count_; }

 private:
  /// One registration, in registration order. Slots are tombstoned (not
  /// erased) on unregister so slot indices stay stable grid ids.
  struct ReceiverSlot {
    FrameReceiver* receiver = nullptr;
    DeliveryInterest interest;
    bool active = false;
  };

  void deliver(FrameReceiver& receiver, const net80211::ManagementFrame& frame,
               const TxRadio& tx, double freq_mhz);

  EventQueue queue_;
  util::Rng rng_;
  std::shared_ptr<const rf::PropagationModel> propagation_;
  Config config_;
  std::vector<std::unique_ptr<AccessPoint>> aps_;
  std::vector<std::unique_ptr<MobileDevice>> mobiles_;
  std::vector<ReceiverSlot> slots_;
  std::unordered_map<const FrameReceiver*, std::size_t> slot_of_;
  geo::SpatialIndex grid_;                   ///< distance-bounded receivers, id = slot
  std::vector<std::size_t> always_slots_;    ///< unbounded interests, ascending
  std::vector<std::size_t> floor_slots_;     ///< rssi-floor receivers, ascending
  double max_interest_radius_ = 0.0;         ///< over grid entries, never shrunk
  std::size_t active_count_ = 0;             ///< live registrations
  std::vector<std::size_t> candidates_;      ///< transmit() scratch
  std::vector<geo::SpatialIndex::Id> hits_;  ///< transmit() scratch
  std::uint64_t tx_count_ = 0;
  std::uint64_t culled_count_ = 0;
};

}  // namespace mm::sim
