// Application-facing publish/subscribe façade over the DR-tree overlay.
//
// The paper's exposition assumes one subscription per process "for the
// sake of simplicity" (§2.1); real deployments host several.  The broker
// implements the general case the standard way: each subscription becomes
// one logical overlay subscriber (a DR-tree peer) owned by the client,
// and deliveries are de-duplicated and exact-matched per client, so a
// client with several overlapping filters receives each event once.
//
// This is the API a downstream application links against:
//
//   broker b(cfg);
//   auto alice = b.add_client();
//   auto sub = b.subscribe(alice, filter_rect);
//   b.unsubscribe(sub);                  // controlled departure
//   auto out = b.publish(alice, point);  // who got it, exactness stats
#ifndef DRT_PUBSUB_BROKER_H
#define DRT_PUBSUB_BROKER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "drtree/overlay.h"
#include "spatial/types.h"

namespace drt::pubsub {

using client_id = std::uint32_t;

/// Identifies one registered subscription of one client.
struct subscription_handle {
  client_id client = 0;
  spatial::peer_id peer = spatial::kNoPeer;  ///< owning overlay subscriber

  friend bool operator==(const subscription_handle&,
                         const subscription_handle&) = default;
};

struct broker_config {
  overlay::dr_config dr{};
  sim::simulator_config net{};
};

/// Outcome of one publication at client granularity.
struct publish_outcome {
  std::uint64_t event_id = 0;
  std::vector<client_id> notified;     ///< clients that received the event
  std::size_t matching_clients = 0;    ///< clients with a matching filter
  std::size_t client_false_positives = 0;  ///< notified, nothing matched
  std::size_t client_false_negatives = 0;  ///< matched, not notified
  std::uint64_t messages = 0;
  std::size_t max_hops = 0;            ///< longest delivery path
};

class broker {
 public:
  explicit broker(broker_config config = {});

  broker(const broker&) = delete;
  broker& operator=(const broker&) = delete;

  // -------------------------------------------------------------- clients
  client_id add_client();
  std::size_t client_count() const { return clients_.size(); }

  /// Register a filter for `client`; the filter joins the overlay as a
  /// logical subscriber owned by the client.
  subscription_handle subscribe(client_id client, const spatial::box& filter);

  /// Controlled departure of one subscription (Fig. 9).  Returns false if
  /// the handle is unknown or already removed.
  bool unsubscribe(const subscription_handle& handle);

  /// Tear down every subscription of `client` (each a controlled
  /// departure) without deregistering the client, so callers need not
  /// track handles themselves.  Returns the number removed (0 when the
  /// client is unknown or had none).
  std::size_t unsubscribe_all(client_id client);

  /// Remove a client entirely: every subscription departs (controlled),
  /// future publishes from it are rejected.  Returns false if unknown.
  bool remove_client(client_id client);

  /// Filters currently registered by `client`.
  std::vector<spatial::box> subscriptions_of(client_id client) const;

  /// Optional push interface: invoked once per (event, notified client).
  using delivery_callback =
      std::function<void(client_id, const spatial::event&)>;
  void set_delivery_callback(delivery_callback cb) { on_delivery_ = std::move(cb); }

  // ---------------------------------------------------------- publication
  /// Publish an event from one of `publisher`'s subscriptions (or, for a
  /// publisher with none, through any overlay peer) and drain the
  /// network: a batch of one.
  publish_outcome publish(client_id publisher, const spatial::pt& value);

  /// Publish `n` events in one overlay batch (DESIGN.md §9): the events
  /// share envelopes and tree descents, so the network cost is far below
  /// n scalar publishes.  Returns one outcome per event with the same
  /// client-level accounting as publish(); the shared batch message total
  /// is reported on the FIRST outcome (0 on the rest).
  std::vector<publish_outcome> publish_batch(client_id publisher,
                                             const spatial::pt* values,
                                             std::size_t n);

  // --------------------------------------------------------------- admin
  /// Run stabilization rounds until the overlay is legal (or the budget
  /// runs out); returns rounds or -1.
  int stabilize(int max_rounds = 100);
  bool overlay_legal() const;

  overlay::dr_overlay& raw_overlay() { return overlay_; }
  const overlay::dr_overlay& raw_overlay() const { return overlay_; }

 private:
  struct client_state {
    std::vector<spatial::peer_id> peers;  // live logical subscribers
  };

  /// The overlay peer a publication from `publisher` enters through: one
  /// of its own live subscribers when it has any, else any live peer.
  spatial::peer_id entry_peer(client_id publisher);
  /// Client-level aggregation of one drained overlay publication.
  publish_outcome outcome_for(const overlay::publish_result& r,
                              spatial::peer_id via, const spatial::pt& value);

  broker_config config_;
  overlay::dr_overlay overlay_;
  std::unordered_map<client_id, client_state> clients_;
  std::unordered_map<spatial::peer_id, client_id> owner_of_;
  client_id next_client_ = 1;
  delivery_callback on_delivery_;
  // publish() scratch: exact matching goes through the overlay's filter
  // index; these buffers make the per-event client aggregation
  // allocation-free once warm.
  std::vector<spatial::peer_id> match_scratch_;
  std::vector<client_id> matched_clients_;
};

}  // namespace drt::pubsub

/// Handles are value types meant for client-side bookkeeping; hashing
/// lets applications keep them in unordered containers directly.
template <>
struct std::hash<drt::pubsub::subscription_handle> {
  std::size_t operator()(const drt::pubsub::subscription_handle& h) const
      noexcept {
    // splitmix64 finalizer over the (client, peer) pair: cheap and well
    // mixed even though both ids are small sequential integers.
    std::uint64_t x = (static_cast<std::uint64_t>(h.client) << 32) ^
                      static_cast<std::uint64_t>(h.peer);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

#endif  // DRT_PUBSUB_BROKER_H
