// Backend adapters (DESIGN.md §6): the DR-tree overlay, the broker
// façade, and the four §3.1/§4 baselines behind the one
// drt::engine::backend interface.
//
// The two overlay-backed adapters drive the identical protocol stack
// through the identical operations: broker_backend is a drtree_backend
// over its broker's overlay that swaps in the broker API for membership
// and publication only.  A churn-free scenario therefore produces
// bit-identical metrics on either — the engine determinism tests rely
// on this.  Baselines get honest *incremental rebuild* semantics: they
// have no repair protocol, so every membership change rebuilds the
// structure from the surviving subscription set (counted in
// backend_counters::rebuilds); crashes, restarts, and corruption are
// outside their capability mask.
#ifndef DRT_ENGINE_BACKENDS_H
#define DRT_ENGINE_BACKENDS_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/baseline.h"
#include "drtree/overlay.h"
#include "engine/backend.h"
#include "pubsub/broker.h"
#include "rtree/rtree.h"
#include "sim/kernel.h"

namespace drt::engine {

struct scenario;

/// Shared configuration for the overlay-backed adapters.
struct overlay_backend_config {
  overlay::dr_config dr{};
  sim::simulator_config net{};
};

/// The backend config a scenario calls for: `base` with the scenario's
/// declarative net model (when it has one) installed.  Benches and
/// tests use this so the scenario value fully determines the transport.
overlay_backend_config configured_for(const scenario& sc,
                                      overlay_backend_config base = {});

/// The system under study: the full DR-tree protocol stack, one overlay
/// peer per subscription.  Every overlay-level operation lives here;
/// broker_backend inherits them.
class drtree_backend : public backend {
 public:
  explicit drtree_backend(overlay_backend_config config = {});

  std::string name() const override { return name_; }
  capability_mask capabilities() const override;

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;
  bool crash(sub_id s) override;
  bool restart(sub_id s) override;
  std::size_t corrupt(double rate, std::uint64_t seed) override;
  bool partition(const std::vector<sub_id>& side_b) override;
  bool heal() override { return overlay_->heal_partition(); }
  bool degrade_links(double latency_factor, double extra_loss,
                     double ramp_rounds) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override;
  std::size_t population() const override { return overlay_->live_count(); }
  sub_id root() const override;

  delivery_report publish(sub_id publisher, const spatial::pt& value) override;
  delivery_report publish_batch(sub_id publisher, const spatial::pt* values,
                                std::size_t n) override;

  void settle() override { overlay_->settle(); }
  void step_round() override;
  bool legal() const override;
  backend_shape shape() const override;
  backend_counters counters() const override;

  const obs::trace_ring* trace() const override { return overlay_->trace(); }
  std::string dump_flight(const std::string& reason) override;

  overlay::dr_overlay& overlay() { return *overlay_; }
  const overlay::dr_overlay& overlay() const { return *overlay_; }

 protected:
  /// Drive an overlay owned elsewhere (the broker's), reported as `name`.
  drtree_backend(overlay::dr_overlay& ov, const char* name)
      : overlay_(&ov), name_(name) {}

 private:
  std::unique_ptr<overlay::dr_overlay> owned_;  ///< null when not ours
  overlay::dr_overlay* overlay_;
  const char* name_ = "drtree";
};

/// The DR-tree stack sharded over a sim::kernel (DESIGN.md §8): one full
/// dr_overlay per shard — its own simulator, calendar queue, payload
/// pool, RNG stream, and filter index — with subscriptions partitioned
/// round-robin by arrival order.  Each shard grows its own tree, so all
/// protocol traffic (joins, stabilization, repair) is intra-shard by
/// construction; only publications cross shards, as kernel injections
/// delivered at barriers (publish in the origin shard, inject at every
/// other shard's root).  With one shard this backend is operation-for-
/// operation identical to drtree_backend — the recorder-digest
/// equivalence tests pin that — and for any fixed shard count a run is
/// bit-deterministic.
class sharded_drtree_backend final : public backend {
 public:
  explicit sharded_drtree_backend(overlay_backend_config config = {},
                                  std::size_t shards = 1,
                                  bool parallel = false);

  std::string name() const override { return "drtree_sharded"; }
  capability_mask capabilities() const override {
    // Partition/degrade act on one simulator's net model; there is no
    // honest cross-shard story for them, so they are not advertised.
    return cap_unsubscribe | cap_crash | cap_restart | cap_corruption |
           cap_stabilize;
  }

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;
  bool crash(sub_id s) override;
  bool restart(sub_id s) override;
  std::size_t corrupt(double rate, std::uint64_t seed) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override;
  std::size_t population() const override;
  sub_id root() const override;

  delivery_report publish(sub_id publisher, const spatial::pt& value) override;
  delivery_report publish_batch(sub_id publisher, const spatial::pt* values,
                                std::size_t n) override;

  void settle() override { kernel_.settle(); }
  void step_round() override;
  bool legal() const override;
  backend_shape shape() const override;
  backend_counters counters() const override;

  const obs::trace_ring* trace() const override {
    return overlays_.empty() ? nullptr : overlays_[0]->trace();
  }
  std::string dump_flight(const std::string& reason) override;

  std::size_t shards() const { return overlays_.size(); }
  overlay::dr_overlay& overlay(std::size_t shard) { return *overlays_[shard]; }
  sim::kernel& kernel() { return kernel_; }
  const sim::kernel& kernel() const { return kernel_; }

  /// Dirty-set backlog of one shard (stabilize_mode::dirty; always 0 in
  /// full mode) — lets drivers see which shards still have repair work.
  std::size_t dirty_pending(std::size_t shard) const;

  /// Total protocol-state footprint across all shard arenas.
  overlay::arena_stats arena_stats() const;

 private:
  struct slot {
    std::size_t shard = 0;
    spatial::peer_id local = spatial::kNoPeer;
  };
  const slot& at(sub_id s) const;

  std::vector<std::unique_ptr<overlay::dr_overlay>> overlays_;
  sim::kernel kernel_;
  std::vector<slot> subs_;  ///< global sub_id (the index) -> shard slot
  /// Per shard: local peer id -> global sub_id (locals are dense).
  std::vector<std::vector<sub_id>> local_to_global_;
  std::uint64_t next_event_id_ = 1;
  std::size_t next_shard_ = 0;
};

/// The application façade: one broker client per engine subscription, so
/// client-level accounting coincides with subscription-level accounting
/// and the adapter stays metrics-compatible with drtree_backend.  Only
/// membership and publication go through the broker API; everything else
/// acts on the broker's overlay exactly as drtree_backend does.
class broker_backend final : public drtree_backend {
 public:
  explicit broker_backend(overlay_backend_config config = {});

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;
  /// publish() is inherited: a batch of one through this override.
  delivery_report publish_batch(sub_id publisher, const spatial::pt* values,
                                std::size_t n) override;

  pubsub::broker& broker() { return *broker_; }

 private:
  // The broker (and so the overlay) must exist before the base adopts
  // it; the delegating constructor hands it over in that order.
  explicit broker_backend(std::unique_ptr<pubsub::broker> b);

  std::unique_ptr<pubsub::broker> broker_;
  /// sub_id == the subscription's overlay peer id; the handle map lets
  /// unsubscribe tear down through the broker API.
  std::unordered_map<sub_id, pubsub::subscription_handle> handles_;
};

/// Adapter for the static baselines: membership changes rebuild the
/// structure from the surviving subscription set, publications are scored
/// against brute-force ground truth over that set.
class baseline_backend final : public backend {
 public:
  explicit baseline_backend(std::unique_ptr<baselines::pubsub_baseline> impl);

  std::string name() const override { return impl_->name(); }
  capability_mask capabilities() const override { return cap_unsubscribe; }

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override { return ids_; }
  std::size_t population() const override { return ids_.size(); }

  delivery_report publish(sub_id publisher, const spatial::pt& value) override;

  backend_shape shape() const override;
  backend_counters counters() const override {
    return {messages_, rebuilds_};
  }

  baselines::pubsub_baseline& impl() { return *impl_; }

 private:
  void rebuild();
  std::size_t index_of(sub_id s) const;  ///< npos when unknown

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::unique_ptr<baselines::pubsub_baseline> impl_;
  std::vector<sub_id> ids_;              // insertion order
  std::vector<spatial::box> filters_;    // parallel to ids_
  sub_id next_id_ = 1;
  std::uint64_t messages_ = 0;
  std::uint64_t rebuilds_ = 0;
  // Ground-truth matcher over filters_, rebuilt with the baseline (the
  // membership set already changes only through rebuild()); publish()
  // scores against it in O(log N + matches) with reusable buffers.
  baselines::delivery_scorer scorer_;
};

/// All five systems of experiment E14 behind the uniform interface: the
/// DR-tree plus the four baselines (containment tree, dimension forest,
/// flooding, Z-curve DHT).
std::vector<std::unique_ptr<backend>> make_all_backends(
    const overlay_backend_config& config);

/// The overlay backend a scenario calls for: its declarative net model
/// installed (configured_for) and its `shards` knob honored — 1 builds
/// the plain drtree_backend, >1 a sharded_drtree_backend over a kernel.
std::unique_ptr<backend> make_scenario_backend(
    const scenario& sc, overlay_backend_config base = {});

}  // namespace drt::engine

#endif  // DRT_ENGINE_BACKENDS_H
