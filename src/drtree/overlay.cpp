#include "drtree/overlay.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <sstream>

#include "util/expect.h"

namespace drt::overlay {

using spatial::kNoPeer;
using spatial::peer_id;

dr_overlay::dr_overlay(dr_config config, sim::simulator_config sim_cfg)
    : config_(config), sim_(sim_cfg) {
  DRT_EXPECT(config_.min_children >= 1);
  DRT_EXPECT(config_.max_children >= 2 * config_.min_children);
  if (config_.trace != obs::trace_mode::off) {
    trace_ = std::make_unique<obs::trace_ring>(config_.trace);
    if (config_.trace == obs::trace_mode::full) {
      // Full mode additionally records every simulator delivery through
      // the existing sim trace hook; ring mode keeps protocol-level
      // events only.
      sim_.set_trace([this](const sim::simulator::trace_event& e) {
        trace_->emit(e.at, obs::trace_kind::message,
                     static_cast<std::uint32_t>(e.to), e.type,
                     static_cast<std::uint64_t>(e.from));
      });
    }
  }
}

peer_id dr_overlay::add_peer(const spatial::box& filter) {
  auto p = std::make_unique<dr_peer>(*this, filter);
  const auto id = static_cast<peer_id>(sim_.add_process(std::move(p)));
  // Ground-truth index entry: filters are immutable, peers are never
  // reused, so the entry stays valid for the peer's whole lifetime
  // (liveness is checked at query time).
  filter_index_.insert(filter, id);
  trace_emit(obs::trace_kind::join, id);
  auto& created = peer(id);
  created.start_join(contact_node(id));
  return id;
}

void dr_overlay::matching_live_peers(const spatial::pt& value,
                                     std::vector<peer_id>& out) const {
  out.clear();
  filter_index_.search_point(value, [&](std::uint64_t h) {
    const auto p = static_cast<peer_id>(h);
    if (alive(p)) out.push_back(p);
  });
  std::sort(out.begin(), out.end());
}

void dr_overlay::intersecting_live_peers(const spatial::box& query,
                                         std::vector<peer_id>& out) const {
  out.clear();
  filter_index_.search_intersects(query, [&](std::uint64_t h) {
    const auto p = static_cast<peer_id>(h);
    if (alive(p)) out.push_back(p);
  });
  std::sort(out.begin(), out.end());
}

peer_id dr_overlay::add_peer_and_settle(const spatial::box& filter,
                                        std::uint64_t max_steps) {
  const auto id = add_peer(filter);
  sim_.run_steps(max_steps);
  return id;
}

void dr_overlay::controlled_leave(peer_id p) {
  DRT_EXPECT(alive(p));
  trace_emit(obs::trace_kind::leave, p, config_.efficient_leave ? 1 : 0);
  if (config_.efficient_leave) {
    peer(p).leave_with_handoff();
  } else {
    peer(p).announce_leave();
  }
  if (config_.stabilize == stabilize_mode::dirty) {
    // The departure notifications mark their receivers when handled, but
    // they can be lost in flight — mark the neighborhood directly too.
    mark_neighbors_of(p);
    for (const auto h : peer(p).instance_heights()) {
      test_and_clear_dirty(peer(p).slot_for_mark(h));
    }
  }
  sim_.crash(p);
  // A controlled departure drops the filter from the ground-truth
  // index, so under churn it stays bounded by live + crashed peers
  // instead of growing with every subscription ever made; restart()
  // re-indexes the peer if it is ever revived.
  filter_index_.erase(peer(p).filter(), p);
  departed_.insert(p);
}

void dr_overlay::crash(peer_id p) {
  if (alive(p)) trace_emit(obs::trace_kind::crash, p);
  if (config_.stabilize == stabilize_mode::dirty && alive(p)) {
    // The crash purge is silent — no protocol message will ever tell the
    // neighbors.  Mark them now, and drop the dead peer's own marks:
    // nothing will consume them until a restart re-marks the chain.
    mark_neighbors_of(p);
    for (const auto h : peer(p).instance_heights()) {
      test_and_clear_dirty(peer(p).slot_for_mark(h));
    }
  }
  sim_.crash(p);
}

bool dr_overlay::partition(const std::vector<peer_id>& side_b) {
  std::vector<sim::process_id> ids;
  ids.reserve(side_b.size());
  for (const auto p : side_b) ids.push_back(static_cast<sim::process_id>(p));
  const bool ok = sim_.partition(ids);
  if (ok) mark_all_live();
  return ok;
}

bool dr_overlay::heal_partition() {
  const bool ok = sim_.heal_partition();
  if (ok) mark_all_live();
  return ok;
}

void dr_overlay::restart(peer_id p) {
  DRT_EXPECT(!alive(p));
  trace_emit(obs::trace_kind::restart, p);
  if (departed_.erase(p) > 0) {
    filter_index_.insert(peer(p).filter(), p);
  }
  sim_.restart(p);
}

dr_peer& dr_overlay::peer(peer_id p) {
  return static_cast<dr_peer&>(sim_.get(p));
}

const dr_peer& dr_overlay::peer(peer_id p) const {
  return static_cast<const dr_peer&>(sim_.get(p));
}

std::vector<peer_id> dr_overlay::live_peers() const {
  std::vector<peer_id> out;
  out.reserve(sim_.process_count());
  for_each_live([&out](peer_id id) { out.push_back(id); });
  return out;
}

repair_stats dr_overlay::total_repairs() const {
  repair_stats total;
  for (std::size_t i = 0; i < sim_.process_count(); ++i) {
    total += peer(static_cast<peer_id>(i)).repairs();
  }
  return total;
}

std::vector<peer_id> dr_overlay::root_peers() const {
  std::vector<peer_id> roots;
  for_each_live([&](peer_id id) {
    if (peer(id).is_root()) roots.push_back(id);
  });
  return roots;
}

peer_id dr_overlay::current_root() const {
  const auto roots = root_peers();
  return roots.size() == 1 ? roots.front() : kNoPeer;
}

peer_id dr_overlay::contact_node(peer_id asking) const {
  if (oracle == oracle_mode::root) {
    const auto root = current_root();
    if (root != kNoPeer && root != asking && reachable(asking, root)) {
      return root;
    }
  }
  if (partitioned()) {
    // Split-brain directory: the oracle can only name peers on the
    // asking side of the cut (an out-of-band directory is partitioned
    // along with everything else).  Separate path so the
    // no-partition draw sequence below stays byte-identical.
    std::size_t candidates = 0;
    for_each_live([&](peer_id id) {
      if (id != asking && reachable(asking, id)) ++candidates;
    });
    if (candidates == 0) return kNoPeer;
    auto& rng = const_cast<dr_overlay*>(this)->sim_.rng();
    std::size_t k = rng.index(candidates);
    peer_id chosen = kNoPeer;
    for_each_live([&](peer_id id) {
      if (id == asking || !reachable(asking, id)) return true;
      if (k == 0) {
        chosen = id;
        return false;
      }
      --k;
      return true;
    });
    return chosen;
  }
  // Called on every (re)join: pick the k-th live peer != asking in id
  // order, in O(log N) on the simulator's order-statistic live set.
  // Consumes the RNG exactly as the old snapshot-based selection did
  // (same count, same index, same id order), so seeded runs are
  // unchanged; `asking` is skipped by its rank.
  const bool asking_live = alive(asking);
  const std::size_t candidates = sim_.live_count() - (asking_live ? 1 : 0);
  if (candidates == 0) return kNoPeer;
  auto& rng = const_cast<dr_overlay*>(this)->sim_.rng();
  std::size_t k = rng.index(candidates);
  if (asking_live && k >= sim_.live_rank(asking)) ++k;
  return static_cast<peer_id>(sim_.nth_live(k));
}

void dr_overlay::record_delivery(std::uint64_t event_id, peer_id p,
                                 std::size_t hop) {
  trace_emit(obs::trace_kind::delivery, p, event_id, hop);
  deliveries_[event_id].insert(p);
  auto& worst = delivery_hops_[event_id];
  worst = std::max(worst, hop);
}

publish_result dr_overlay::publish_and_drain(peer_id publisher,
                                             const spatial::pt& value,
                                             std::uint64_t max_steps) {
  return std::move(multi_publish_and_drain(publisher, &value, 1, max_steps)
                       .front());
}

publish_result dr_overlay::publish_finish(std::uint64_t event_id,
                                          const spatial::pt& value,
                                          std::uint64_t messages_before) {
  spatial::event ev;
  ev.id = event_id;
  ev.value = value;

  publish_result r;
  r.event_id = ev.id;
  r.messages = sim_.metrics().messages_sent - messages_before;
  r.max_hops = delivery_hops_[ev.id];
  const auto& delivered = deliveries_[ev.id];
  // Runs once per published event.  Ground truth comes from the filter
  // index (O(log N + matches)) instead of a scan over every live peer;
  // receivers are exactly the recorded deliveries (peers only record
  // while alive, and nothing dies inside this drain).
  r.receivers.reserve(delivered.size());
  for (const auto p : delivered) {
    if (alive(p)) r.receivers.push_back(p);
  }
  std::sort(r.receivers.begin(), r.receivers.end());
  r.delivered = r.receivers.size();
  for (const auto p : r.receivers) {
    if (!peer(p).filter().contains(value)) ++r.false_positives;
  }
  matching_live_peers(value, match_scratch_);
  r.interested = match_scratch_.size();
  for (const auto p : match_scratch_) {
    if (delivered.count(p) == 0) {
      ++r.false_negatives;
      trace_emit(obs::trace_kind::false_neg, p, ev.id);
    }
  }
  if (r.false_negatives > 0 && trace_ != nullptr && config_.trace_dump &&
      !fn_dumped_) {
    // First false negative this overlay ever observed: freeze the flight
    // recorder into a dump so the drop is attributable after the fact.
    fn_dumped_ = true;
    std::ostringstream ctx;
    ctx << "event " << ev.id << " missed " << r.false_negatives << " of "
        << r.interested << " interested peers (delivered " << r.delivered
        << ", messages " << r.messages << ")";
    const auto path = obs::write_flight_dump(
        "first-false-negative", trace_->snapshot(), 256, ctx.str());
    if (!path.empty()) {
      std::fprintf(stderr, "drt: first false negative; flight dump: %s\n",
                   path.c_str());
    }
  }
  deliveries_.erase(ev.id);
  delivery_hops_.erase(ev.id);
  return r;
}

std::vector<publish_result> dr_overlay::multi_publish_and_drain(
    peer_id publisher, const spatial::pt* values, std::size_t n,
    std::uint64_t max_steps) {
  std::vector<publish_result> out;
  if (n == 0) return out;
  std::vector<std::uint64_t> ids(n);
  for (auto& id : ids) id = next_event_id();
  const auto msgs_before = sim_.metrics().messages_sent;
  multi_publish_begin(publisher, ids.data(), values, n);
  sim_.run_steps(max_steps);
  const auto msgs_after = sim_.metrics().messages_sent;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Passing msgs_after as the baseline zeroes each per-event message
    // delta; the shared batch total lands on the first result below.
    out.push_back(publish_finish(ids[i], values[i], msgs_after));
  }
  out.front().messages = msgs_after - msgs_before;
  return out;
}

void dr_overlay::multi_publish_begin(peer_id publisher,
                                     const std::uint64_t* event_ids,
                                     const spatial::pt* values,
                                     std::size_t n) {
  DRT_EXPECT(alive(publisher));
  publish_from(publisher, event_ids, values, n);
}

void dr_overlay::inject_multi_publish(const std::uint64_t* event_ids,
                                      const spatial::pt* values,
                                      std::size_t n) {
  if (n == 0) return;
  // Entry point: the first live root fragment, else any live peer.
  peer_id target = kNoPeer;
  for_each_live([&](peer_id id) {
    if (target == kNoPeer) target = id;
    if (peer(id).is_root()) {
      target = id;
      return false;
    }
    return true;
  });
  if (target == kNoPeer) return;  // empty shard: nothing to deliver
  publish_from(target, event_ids, values, n);
}

void dr_overlay::publish_from(peer_id entry, const std::uint64_t* event_ids,
                              const spatial::pt* values, std::size_t n) {
  publish_scratch_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    publish_scratch_.push_back({event_ids[i], entry, values[i]});
    trace_emit(obs::trace_kind::publish, entry, event_ids[i]);
  }
  peer(entry).multi_publish(publish_scratch_.data(), n);
}

// ------------------------------------------------------------ dirty set

void dr_overlay::mark_dirty(peer_id p, std::size_t height) {
  if (config_.stabilize != stabilize_mode::dirty) return;
  if (p == kNoPeer || static_cast<std::size_t>(p) >= sim_.process_count() ||
      !sim_.is_alive(p)) {
    return;
  }
  auto& pr = peer(p);
  const auto s = pr.slot_for_mark(height);
  if (s == kNoSlot) return;
  const std::size_t w = s / 64;
  if (w >= dirty_bits_.size()) dirty_bits_.resize(w + 1, 0);
  const std::uint64_t mask = 1ull << (s % 64);
  if ((dirty_bits_[w] & mask) == 0) {
    dirty_bits_[w] |= mask;
    dirty_ring_.push_back(s);
    ++dirty_pending_;
    ++stab_stats_.marks;
    // A set bit means the owner has already been pulled in and not yet
    // consumed it, so the nudge is only needed on the 0→1 edge.
    pr.note_marked();
  }
}

bool dr_overlay::test_and_clear_dirty(inst_slot s) {
  if (s == kNoSlot) return false;
  const std::size_t w = s / 64;
  if (w >= dirty_bits_.size()) return false;
  const std::uint64_t mask = 1ull << (s % 64);
  if ((dirty_bits_[w] & mask) == 0) return false;
  dirty_bits_[w] &= ~mask;
  --dirty_pending_;
  // The ring accumulates one (possibly stale) entry per 0→1 mark;
  // rebuild it from the bitmap — O(set bits) — when mostly stale.
  if (dirty_ring_.size() >= 64 &&
      dirty_ring_.size() > 4 * dirty_pending_) {
    dirty_ring_.clear();
    for (std::size_t i = 0; i < dirty_bits_.size(); ++i) {
      for (auto bits = dirty_bits_[i]; bits != 0; bits &= bits - 1) {
        dirty_ring_.push_back(static_cast<inst_slot>(
            i * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }
  return true;
}

void dr_overlay::mark_neighbors_of(peer_id p) {
  auto& pr = peer(p);
  for (const auto h : pr.instance_heights()) {
    const auto& ins = pr.inst(h);
    if (ins.parent != kNoPeer && ins.parent != p) {
      mark_dirty(ins.parent, h + 1);
    }
    if (h > 0) {
      for (const auto c : ins.children) {
        if (c != p) mark_dirty(c, h - 1);
      }
    }
  }
}

void dr_overlay::mark_all_live() {
  if (config_.stabilize != stabilize_mode::dirty) return;
  for_each_live([this](peer_id id) { mark_dirty(id, 0); });
}

void dr_overlay::record_search_hit(std::uint64_t query_id, peer_id p,
                                   std::size_t hop) {
  search_hits_[query_id].insert(p);
  auto& worst = search_hops_[query_id];
  worst = std::max(worst, hop);
}

dr_overlay::search_result dr_overlay::search_and_drain(
    peer_id origin, const spatial::box& query, std::uint64_t max_steps) {
  DRT_EXPECT(alive(origin));
  const auto query_id = next_event_id();
  const auto msgs_before = sim_.metrics().messages_sent;
  peer(origin).start_search(query_id, query);
  sim_.run_steps(max_steps);

  search_result r;
  r.messages = sim_.metrics().messages_sent - msgs_before;
  r.max_hops = search_hops_[query_id];
  const auto& hits = search_hits_[query_id];
  r.hits.assign(hits.begin(), hits.end());
  std::sort(r.hits.begin(), r.hits.end());
  // Ground truth via the filter index instead of a live-population scan.
  for (const auto p : r.hits) {
    if (alive(p) && !peer(p).filter().intersects(query)) ++r.false_positives;
  }
  intersecting_live_peers(query, match_scratch_);
  for (const auto p : match_scratch_) {
    if (hits.count(p) == 0) ++r.false_negatives;
  }
  search_hits_.erase(query_id);
  search_hops_.erase(query_id);
  return r;
}

}  // namespace drt::overlay
