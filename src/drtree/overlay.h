// The DR-tree overlay: owns the simulator and the peer processes, provides
// the membership API (join / controlled leave / crash), the contact oracle
// the paper assumes ("at connection time, a subscriber invokes an oracle
// that accurately provides a subscriber already in the structure"), and
// the publish/subscribe accounting used by the experiments.
#ifndef DRT_DRTREE_OVERLAY_H
#define DRT_DRTREE_OVERLAY_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "drtree/arena.h"
#include "drtree/config.h"
#include "drtree/peer.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "sim/simulator.h"
#include "spatial/types.h"

namespace drt::overlay {

/// How Get_Contact_Node picks the entry point for (re)joins.
enum class oracle_mode {
  random_live,  ///< uniformly random live peer (realistic)
  root,         ///< always the current root (fastest convergence)
};

/// Outcome of one publication, after the network drained.
struct publish_result {
  std::uint64_t event_id = 0;
  std::size_t interested = 0;        ///< ground truth |{p : filter_p ∋ e}|
  std::size_t delivered = 0;         ///< distinct peers that received e
  std::size_t false_positives = 0;   ///< delivered but not interested
  std::size_t false_negatives = 0;   ///< interested but not delivered
  std::uint64_t messages = 0;        ///< network messages spent
  std::size_t max_hops = 0;          ///< longest delivery path (E11)
  std::vector<spatial::peer_id> receivers;  ///< live peers that received it
};

/// Dirty-set scheduling counters (stabilize_mode::dirty, DESIGN.md §11).
/// `visited` counts stabilize passes that actually ran (both modes);
/// `skipped` counts periodic ticks a clean peer jumped over; `marks`
/// counts bitmap 0→1 transitions.
struct stabilize_stats {
  std::uint64_t marks = 0;
  std::uint64_t visited = 0;
  std::uint64_t skipped = 0;
};

class dr_overlay {
 public:
  explicit dr_overlay(dr_config config = {}, sim::simulator_config sim = {});

  dr_overlay(const dr_overlay&) = delete;
  dr_overlay& operator=(const dr_overlay&) = delete;

  // -------------------------------------------------------- membership
  /// Create a peer with the given filter and start its join protocol
  /// (via the oracle).  Does not advance time: call one of the run
  /// helpers afterwards.
  spatial::peer_id add_peer(const spatial::box& filter);

  /// Convenience: add a peer and drain the network until its join
  /// completes (or `max_steps` handler steps elapse).
  spatial::peer_id add_peer_and_settle(const spatial::box& filter,
                                       std::uint64_t max_steps = 100000);

  /// Controlled departure (Fig. 9): the peer notifies its parent, then
  /// disappears.
  void controlled_leave(spatial::peer_id p);

  /// Uncontrolled departure: the peer silently crashes.
  void crash(spatial::peer_id p);

  /// Revive a dead peer (crashed *or* departed) with its old filter.
  /// Goes through the overlay — not sim().restart() — so the
  /// ground-truth filter index is restored for peers whose controlled
  /// departure removed them from it.
  void restart(spatial::peer_id p);

  // ------------------------------------------------------------ access
  dr_peer& peer(spatial::peer_id p);
  const dr_peer& peer(spatial::peer_id p) const;
  bool alive(spatial::peer_id p) const { return sim_.is_alive(p); }

  /// The failure-detector oracle peer protocols use: `q` is alive AND no
  /// active network partition separates it from `p`.  With no partition
  /// this is exactly alive(); under one, an unreachable peer is
  /// indistinguishable from a crashed one — which is what lets each side
  /// of a split-brain stabilize independently.
  bool reachable(spatial::peer_id p, spatial::peer_id q) const {
    return sim_.is_alive(q) && sim_.reachable(p, q);
  }

  // ------------------------------------------------------ network faults
  /// Partition the overlay (requires a dynamic net model; returns false
  /// otherwise): `side_b` against everyone else.  Cuts messages and the
  /// reachability oracle; the contact oracle then only hands out
  /// same-side contacts, so rejoins stay within the joiner's side.
  bool partition(const std::vector<spatial::peer_id>& side_b);
  bool heal_partition();
  bool degrade_links(double latency_factor, double extra_loss,
                     sim::sim_time ramp) {
    return sim_.degrade_links(latency_factor, extra_loss, ramp);
  }
  /// True while a partition is installed.
  bool partitioned() const {
    const auto* dyn = sim_.dynamic_net();
    return dyn != nullptr && dyn->partitioned();
  }
  /// Allocating snapshot; prefer for_each_live()/live_count() in loops.
  std::vector<spatial::peer_id> live_peers() const;
  /// O(1), from the simulator's live set.
  std::size_t live_count() const { return sim_.live_count(); }
  /// The k-th live peer in ascending id order (0-based, k < live_count()),
  /// in O(log N).
  spatial::peer_id nth_live(std::size_t k) const {
    return static_cast<spatial::peer_id>(sim_.nth_live(k));
  }

  /// Visit every live peer id in ascending order without materializing a
  /// vector.  As with sim::simulator::for_each_live, a bool-returning
  /// visitor stops on false.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    sim_.for_each_live([&fn](sim::process_id id) {
      return fn(static_cast<spatial::peer_id>(id));
    });
  }

  /// Aggregate per-module repair counters over all peers (dead included:
  /// their history still counts).
  repair_stats total_repairs() const;

  /// The unique root if exactly one live peer is a root, else kNoPeer.
  spatial::peer_id current_root() const;
  /// All live peers whose topmost instance points to themselves.
  std::vector<spatial::peer_id> root_peers() const;

  /// Get_Contact_Node(): a live peer other than `asking` per the oracle
  /// mode; kNoPeer when none exists.
  spatial::peer_id contact_node(spatial::peer_id asking) const;

  // ----------------------------------------------------- dissemination
  /// Publish from `publisher` and drain the network; returns accuracy and
  /// cost accounting against brute-force ground truth.  The batch of one
  /// of multi_publish_and_drain.
  publish_result publish_and_drain(spatial::peer_id publisher,
                                   const spatial::pt& value,
                                   std::uint64_t max_steps = 1000000);

  /// Publish all `values` from one publisher as batch envelopes (DESIGN.md
  /// §9) and drain; per-event accounting is identical to publishing each
  /// value alone on a quiescent tree, except that `messages` reports the
  /// shared batch total on the FIRST result (0 on the rest) — splitting a
  /// shared envelope's cost per event would be arbitrary.
  std::vector<publish_result> multi_publish_and_drain(
      spatial::peer_id publisher, const spatial::pt* values, std::size_t n,
      std::uint64_t max_steps = 1000000);

  // Split publication path for callers that own the drive loop (the
  // sharded kernel backend publishes in one shard, injects into the
  // others, drains them all at kernel barriers, then collects per-shard
  // accounting).  multi_publish_and_drain == begin + run_steps + finish
  // per event.  event_ids[i] pairs with values[i].
  /// Start a publication with caller-allocated event ids; no draining.
  void multi_publish_begin(spatial::peer_id publisher,
                           const std::uint64_t* event_ids,
                           const spatial::pt* values, std::size_t n);
  /// Inject externally published events into this overlay's tree: they
  /// enter at the root (first live root fragment, else any live peer)
  /// and disseminate as if published there.  The entry peer records a
  /// delivery unconditionally — up to one extra false positive per
  /// injected shard, the documented cost of cross-shard fan-out.
  void inject_multi_publish(const std::uint64_t* event_ids,
                            const spatial::pt* values, std::size_t n);
  /// Accuracy/cost accounting for `event_id` after the caller drained;
  /// `messages_before` is sim().metrics().messages_sent at begin time.
  publish_result publish_finish(std::uint64_t event_id,
                                const spatial::pt& value,
                                std::uint64_t messages_before);

  /// Record that `p` received event `id` after `hop` messages (called by
  /// peers).
  void record_delivery(std::uint64_t event_id, spatial::peer_id p,
                       std::size_t hop);

  std::uint64_t next_event_id() { return next_event_id_++; }

  // ------------------------------------------------------------ search
  /// Result of one distributed range search (§1 "data storage or
  /// search"): the subscriptions whose filters intersect the query.
  struct search_result {
    std::vector<spatial::peer_id> hits;
    std::uint64_t messages = 0;
    std::size_t max_hops = 0;
    std::size_t false_negatives = 0;  ///< vs brute-force ground truth
    std::size_t false_positives = 0;
  };

  /// Run a range query from `origin` and drain the network.
  search_result search_and_drain(spatial::peer_id origin,
                                 const spatial::box& query,
                                 std::uint64_t max_steps = 1000000);

  // ------------------------------------------------- ground-truth index
  // Filters are immutable for a peer's lifetime, so the overlay keeps
  // every filter ever registered in one sequential R-tree and prunes
  // dead peers by liveness at query time.  This replaces the O(N)
  // brute-force scan that used to run once per published event / range
  // search — the per-event matching cost is now O(log N + answers).

  /// Live peers whose filter contains `value`, ascending id order, into
  /// the caller-owned buffer (cleared first; no allocation once warm).
  void matching_live_peers(const spatial::pt& value,
                           std::vector<spatial::peer_id>& out) const;

  /// Live peers whose filter intersects `query`, ascending id order.
  void intersecting_live_peers(const spatial::box& query,
                               std::vector<spatial::peer_id>& out) const;

  /// Called by peers when a SEARCH_HIT arrives (or a local hit occurs).
  void record_search_hit(std::uint64_t query_id, spatial::peer_id p,
                         std::size_t hop);

  // --------------------------------------------------------- execution
  sim::simulator& sim() { return sim_; }
  const sim::simulator& sim() const { return sim_; }
  const dr_config& config() const { return config_; }
  util::rng& rng() { return sim_.rng(); }

  /// The shard-local arena holding every peer's per-height instances.
  instance_arena& arena() { return arena_; }
  const instance_arena& arena() const { return arena_; }

  // ---------------------------------------------------------- dirty set
  // Dirty-set scheduling (stabilize_mode::dirty, DESIGN.md §11): a bitmap
  // over arena slots plus a mark-order ring.  Every protocol mutation
  // that can invalidate an invariant marks the instances it touched; a
  // peer's periodic pass consumes its own marks and a clean peer skips
  // ahead to its next background-sweep tick.  All of this is a no-op in
  // full mode.

  /// Mark `p`'s instance at `height` dirty (nearest existing height when
  /// the exact one is missing — the leaf always exists).  Nudges the
  /// peer's stabilize timer forward when it was armed past the next tick.
  void mark_dirty(spatial::peer_id p, std::size_t height);

  /// Pass-start consumption: clear the slot's bit, returning whether it
  /// was set.  Called by the owning peer for each of its instances.
  bool test_and_clear_dirty(inst_slot s);

  /// Whether the slot is currently marked (no state change).
  bool is_dirty(inst_slot s) const {
    const std::size_t w = s / 64;
    return w < dirty_bits_.size() &&
           (dirty_bits_[w] & (1ull << (s % 64))) != 0;
  }

  /// Slots currently marked (the kernel skips shards where this is 0 and
  /// drtd reschedules its wall-clock stabilizer against it).
  std::size_t dirty_pending() const { return dirty_pending_; }

  stabilize_stats& stab_stats() { return stab_stats_; }
  const stabilize_stats& stab_stats() const { return stab_stats_; }

  // ----------------------------------------------------- flight recorder
  /// The trace ring, or nullptr when dr_config::trace == off.  Read it
  /// only between drains — the ring shares the shard's single-writer
  /// discipline.
  obs::trace_ring* trace() const { return trace_.get(); }

  /// Emit site used throughout the protocol: with tracing off this is one
  /// null-pointer branch (no stores, no allocation — the zero-overhead
  /// contract the obs tests pin).
  void trace_emit(obs::trace_kind kind, spatial::peer_id p,
                  std::uint64_t a = 0, std::uint64_t b = 0) {
    if (trace_) {
      trace_->emit(sim_.now(), kind, static_cast<std::uint32_t>(p), a, b);
    }
  }

  /// One-shot claims gating the automatic flight dumps (first checker
  /// violation, first false negative): true exactly once per overlay, and
  /// only when tracing and trace_dump are on.
  bool claim_violation_dump() const {
    if (trace_ == nullptr || !config_.trace_dump || violation_dumped_) {
      return false;
    }
    violation_dumped_ = true;
    return true;
  }

  /// Drain all in-flight work (join/leave/repair messages).
  std::uint64_t settle(std::uint64_t max_steps = 1000000) {
    return sim_.run_steps(max_steps);
  }

  /// Advance virtual time by `dt` (periodic stabilizers fire).
  void advance(sim::sim_time dt) { sim_.run_until(sim_.now() + dt); }

  oracle_mode oracle = oracle_mode::random_live;

 private:
  /// Dirty-mark every neighbor of `p` (parent above each instance, every
  /// child below) before a silent departure purges its links.
  void mark_neighbors_of(spatial::peer_id p);
  /// Reachability changed globally (partition installed or healed):
  /// every live peer must re-check against the new oracle.
  void mark_all_live();
  /// Hand `values` to `entry` as events it publishes (shared tail of
  /// multi_publish_begin and inject_multi_publish).
  void publish_from(spatial::peer_id entry, const std::uint64_t* event_ids,
                    const spatial::pt* values, std::size_t n);

  dr_config config_;
  /// Declared before sim_: the simulator owns the dr_peer processes,
  /// whose destructors release their arena slots, so the arena must
  /// outlive the simulator.
  instance_arena arena_;
  sim::simulator sim_;
  rtree::rtree<spatial::kDims> filter_index_;
  /// Peers whose controlled departure removed them from filter_index_;
  /// restart() re-indexes them.
  std::unordered_set<spatial::peer_id> departed_;
  mutable std::vector<spatial::peer_id> match_scratch_;
  std::vector<spatial::event> publish_scratch_;  ///< publish_from's events
  std::uint64_t next_event_id_ = 1;
  std::unordered_map<std::uint64_t, std::unordered_set<spatial::peer_id>>
      deliveries_;
  std::unordered_map<std::uint64_t, std::size_t> delivery_hops_;
  std::unordered_map<std::uint64_t, std::unordered_set<spatial::peer_id>>
      search_hits_;
  std::unordered_map<std::uint64_t, std::size_t> search_hops_;

  // Dirty-set state (empty and untouched in full mode).
  std::vector<std::uint64_t> dirty_bits_;  ///< one bit per arena slot
  std::vector<inst_slot> dirty_ring_;      ///< marked slots in mark order
  std::size_t dirty_pending_ = 0;          ///< set bits in dirty_bits_
  stabilize_stats stab_stats_;

  // Flight recorder (null when config_.trace == off).  The dump claims
  // are mutable so the const checker can trigger the first-violation dump.
  std::unique_ptr<obs::trace_ring> trace_;
  mutable bool violation_dumped_ = false;
  bool fn_dumped_ = false;
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_OVERLAY_H
