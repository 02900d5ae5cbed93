#include "pubsub/broker.h"

#include <algorithm>

#include "drtree/checker.h"
#include "util/expect.h"

namespace drt::pubsub {

using spatial::kNoPeer;
using spatial::peer_id;

broker::broker(broker_config config)
    : config_(config), overlay_(config.dr, config.net) {}

client_id broker::add_client() {
  const auto id = next_client_++;
  clients_.emplace(id, client_state{});
  return id;
}

subscription_handle broker::subscribe(client_id client,
                                      const spatial::box& filter) {
  DRT_EXPECT(clients_.count(client) > 0);
  DRT_EXPECT(!filter.is_empty());
  const auto peer = overlay_.add_peer_and_settle(filter);
  clients_[client].peers.push_back(peer);
  owner_of_[peer] = client;
  return {client, peer};
}

bool broker::unsubscribe(const subscription_handle& handle) {
  auto it = clients_.find(handle.client);
  if (it == clients_.end()) return false;
  auto& peers = it->second.peers;
  const auto pos = std::find(peers.begin(), peers.end(), handle.peer);
  if (pos == peers.end()) return false;
  if (overlay_.alive(handle.peer)) {
    overlay_.controlled_leave(handle.peer);
    overlay_.settle();
  }
  peers.erase(pos);
  owner_of_.erase(handle.peer);
  return true;
}

std::size_t broker::unsubscribe_all(client_id client) {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  std::size_t removed = 0;
  for (const auto p : it->second.peers) {
    if (overlay_.alive(p)) {
      overlay_.controlled_leave(p);
      overlay_.settle();
    }
    owner_of_.erase(p);
    ++removed;
  }
  it->second.peers.clear();
  return removed;
}

bool broker::remove_client(client_id client) {
  if (clients_.find(client) == clients_.end()) return false;
  unsubscribe_all(client);
  clients_.erase(client);
  return true;
}

std::vector<spatial::box> broker::subscriptions_of(client_id client) const {
  std::vector<spatial::box> out;
  const auto it = clients_.find(client);
  if (it == clients_.end()) return out;
  for (const auto p : it->second.peers) {
    if (overlay_.alive(p)) out.push_back(overlay_.peer(p).filter());
  }
  return out;
}

peer_id broker::entry_peer(client_id publisher) {
  DRT_EXPECT(clients_.count(publisher) > 0);
  // Inject through one of the publisher's own subscribers when it has
  // any, otherwise through any live overlay peer (a pure producer).
  peer_id via = kNoPeer;
  for (const auto p : clients_[publisher].peers) {
    if (overlay_.alive(p)) {
      via = p;
      break;
    }
  }
  if (via == kNoPeer) {
    overlay_.for_each_live([&](peer_id p) {
      via = p;
      return false;  // first live peer — same pick as the old snapshot
    });
    DRT_EXPECT(via != kNoPeer);
  }
  return via;
}

publish_outcome broker::publish(client_id publisher,
                                const spatial::pt& value) {
  return publish_batch(publisher, &value, 1).front();
}

std::vector<publish_outcome> broker::publish_batch(client_id publisher,
                                                   const spatial::pt* values,
                                                   std::size_t n) {
  std::vector<publish_outcome> out;
  if (n == 0) return out;
  const auto via = entry_peer(publisher);
  const auto results = overlay_.multi_publish_and_drain(via, values, n);
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    out.push_back(outcome_for(results[i], via, values[i]));
  }
  return out;
}

publish_outcome broker::outcome_for(const overlay::publish_result& r,
                                    peer_id via, const spatial::pt& value) {
  publish_outcome out;
  out.event_id = r.event_id;
  out.messages = r.messages;
  out.max_hops = r.max_hops;

  // Client-level aggregation: notified once per client, exact matching
  // against the client's own filters.
  std::vector<client_id> notified;
  for (const auto p : r.receivers) {
    const auto it = owner_of_.find(p);
    if (it == owner_of_.end()) continue;
    if (std::find(notified.begin(), notified.end(), it->second) ==
        notified.end()) {
      notified.push_back(it->second);
    }
  }
  std::sort(notified.begin(), notified.end());
  out.notified = notified;

  spatial::event ev;
  ev.id = r.event_id;
  ev.publisher = via;
  ev.value = value;
  // A client matches iff any of its live subscription peers' filters
  // contains the value; the overlay's ground-truth index yields those
  // peers directly instead of a scan over every client's peer list.
  overlay_.matching_live_peers(value, match_scratch_);
  matched_clients_.clear();
  for (const auto p : match_scratch_) {
    const auto it = owner_of_.find(p);
    if (it == owner_of_.end()) continue;
    matched_clients_.push_back(it->second);
  }
  std::sort(matched_clients_.begin(), matched_clients_.end());
  matched_clients_.erase(
      std::unique(matched_clients_.begin(), matched_clients_.end()),
      matched_clients_.end());
  for (const auto& [client, state] : clients_) {
    const bool matches = std::binary_search(matched_clients_.begin(),
                                            matched_clients_.end(), client);
    const bool got = std::binary_search(notified.begin(), notified.end(),
                                        client);
    if (matches) ++out.matching_clients;
    if (got && !matches) ++out.client_false_positives;
    if (!got && matches) ++out.client_false_negatives;
    if (got && on_delivery_) on_delivery_(client, ev);
  }
  return out;
}

int broker::stabilize(int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    if (overlay_legal()) return round;
    overlay_.advance(config_.dr.stabilize_period);
    overlay_.settle();
  }
  return overlay_legal() ? max_rounds : -1;
}

bool broker::overlay_legal() const {
  return overlay::checker(overlay_).check().legal();
}

}  // namespace drt::pubsub
