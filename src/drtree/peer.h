// A DR-tree peer: one physical process owning one subscription and a chain
// of tree-node *instances* (§3: "a subscriber is recursively its own child
// in the subtree rooted at p", so a peer active at height h is active at
// every height 0..h and maintains children/parent/MBR state per height).
//
// Heights count from the leaves (leaf instance = height 0); the paper's
// levels count from the root.  Height numbering is stable when the root
// splits (DESIGN.md §5).
//
// Execution model: protocol steps are triggered by simulator messages and
// timers; a step may read, and for the paper's multi-node actions
// (Adjust_Parent, Merge_Children, splits) atomically update, the state of
// overlay neighbors — the same locally-atomic action granularity the
// paper's pseudo-code and proofs use.
#ifndef DRT_DRTREE_PEER_H
#define DRT_DRTREE_PEER_H

#include <cstdint>
#include <vector>

#include "drtree/arena.h"
#include "drtree/config.h"
#include "drtree/messages.h"
#include "sim/simulator.h"
#include "spatial/types.h"

namespace drt::overlay {

class dr_overlay;

/// Counts of repairs each stabilization module actually performed —
/// instrumentation for the corruption experiments ("which module does the
/// work"), aggregated overlay-wide by dr_overlay::total_repairs().
struct repair_stats {
  std::uint64_t mbr_fixed = 0;           ///< CHECK_MBR rewrote a value
  std::uint64_t own_chain_fixed = 0;     ///< CHECK_PARENT local fix
  std::uint64_t rejoins = 0;             ///< CHECK_PARENT oracle rejoins
  std::uint64_t children_discarded = 0;  ///< CHECK_CHILDREN drops
  std::uint64_t instances_dissolved = 0; ///< degenerate instance collapse
  std::uint64_t cover_promotions = 0;    ///< CHECK_COVER role exchanges
  std::uint64_t compactions = 0;         ///< CHECK_STRUCTURE merges
  std::uint64_t redistributions = 0;     ///< CHECK_STRUCTURE borrows
  std::uint64_t subtree_dissolutions = 0;///< INITIATE_NEW_CONNECTION sent

  repair_stats& operator+=(const repair_stats& other) {
    mbr_fixed += other.mbr_fixed;
    own_chain_fixed += other.own_chain_fixed;
    rejoins += other.rejoins;
    children_discarded += other.children_discarded;
    instances_dissolved += other.instances_dissolved;
    cover_promotions += other.cover_promotions;
    compactions += other.compactions;
    redistributions += other.redistributions;
    subtree_dissolutions += other.subtree_dissolutions;
    return *this;
  }
};

// Repair-module codes carried in the `a` field of flight-recorder repair
// records (obs::trace_kind::repair), mirroring repair_stats field order;
// the record's `b` field is the instance height repaired.
inline constexpr std::uint64_t kRepairMbr = 1;
inline constexpr std::uint64_t kRepairOwnChain = 2;
inline constexpr std::uint64_t kRepairRejoin = 3;
inline constexpr std::uint64_t kRepairChildDiscard = 4;
inline constexpr std::uint64_t kRepairDissolve = 5;
inline constexpr std::uint64_t kRepairCover = 6;
inline constexpr std::uint64_t kRepairCompact = 7;
inline constexpr std::uint64_t kRepairRedistribute = 8;
inline constexpr std::uint64_t kRepairSubtreeDissolve = 9;

class dr_peer : public sim::process {
 public:
  dr_peer(dr_overlay& overlay, spatial::box filter);
  ~dr_peer() override;

  // ------------------------------------------------------------- state
  const spatial::box& filter() const { return filter_; }
  spatial::peer_id pid() const { return static_cast<spatial::peer_id>(id()); }

  bool has_instance(std::size_t h) const { return find_ref(h) != nullptr; }
  instance& inst(std::size_t h);                    ///< aborts if missing
  const instance& inst(std::size_t h) const;        ///< aborts if missing
  instance* find_inst(std::size_t h);
  const instance* find_inst(std::size_t h) const;
  instance& ensure_inst(std::size_t h);             ///< creates if missing
  void erase_inst(std::size_t h);

  /// Greatest height with an instance; peers always keep the leaf (0).
  std::size_t top() const;
  /// True iff the topmost instance designates this peer as its own parent
  /// (the paper: "the parent of the root process is the process itself").
  bool is_root() const;
  /// All heights with instances, ascending (may be non-contiguous only
  /// while corrupted).
  std::vector<std::size_t> instance_heights() const;

  const repair_stats& repairs() const { return repairs_; }

  // ------------------------------------- dirty-set scheduling (§11)
  /// The arena slot dr_overlay::mark_dirty stamps for a mark at `h`:
  /// the instance at that height when present, else the lowest owned
  /// instance (the leaf always exists) — a mark anywhere schedules the
  /// whole chain, so nearest-height resolution never loses a repair.
  inst_slot slot_for_mark(std::size_t h) const;

  /// Called by the overlay when one of this peer's slots transitions
  /// clean→dirty: pulls the armed stabilize timer in to the next tick
  /// when it was parked at a later background-sweep tick.  No-op in
  /// full mode, during this peer's own pass, or before on_start armed.
  void note_marked();

  // ------------------------------------------------- protocol (joins)
  /// Connect this peer (leaf) through `contact` (§3.2 "Joins").  Pass the
  /// peer's own id when it is the first/only node: it becomes the root.
  void start_join(spatial::peer_id contact);

  /// Controlled departure (§3.2, Fig. 9): notify the parent of the
  /// topmost instance, then leave.  The caller crashes the process.
  void announce_leave();

  /// Efficient controlled departure (§3.2's "much more efficient
  /// variants ... reconnect whole subtrees"): before leaving, hand every
  /// instance group to a freshly elected leader, wiring the leaders into
  /// a chain that replaces this peer — no orphaned subtree ever has to
  /// rejoin through the oracle.  The caller crashes the process.
  void leave_with_handoff();

  /// Publish `n` events (§2.3/§3 dissemination; DESIGN.md §9): the
  /// batch climbs to the root and descends every sibling subtree whose
  /// MBR holds at least one of its events, splitting only where children
  /// diverge, so k co-located events cost one tree traversal instead of
  /// k.  A scalar publish is the batch of one.  Per-event delivery/dedup
  /// semantics are those of n single-event publishes on a quiescent tree.
  /// Batches larger than dr_batch_msg::kMaxEvents are chunked.
  void multi_publish(const spatial::event* evs, std::size_t n);

  /// Start a distributed range search: route `query` to the root, then
  /// down every subtree whose MBR intersects it; every leaf whose filter
  /// intersects replies to this peer with SEARCH_HIT (collected by the
  /// overlay under `query_id`).
  void start_search(std::uint64_t query_id, const spatial::box& query);

  // --------------------------------------- stabilization (Figs. 10-14)
  // Public so unit tests can drive modules directly and deterministically.
  void check_mbr(std::size_t h);        // Fig. 10
  void check_parent(std::size_t h);     // Fig. 11
  void check_children(std::size_t h);   // Fig. 12
  void check_cover(std::size_t h);      // Fig. 13
  void check_structure(std::size_t h);  // Fig. 14
  /// One full pass of every enabled module over every instance height
  /// (what the periodic timer runs).
  void stabilize_pass();

  // ------------------------------------------------------ sim::process
  void on_start() override;
  void on_message(sim::process_id from, std::uint64_t type,
                  const sim::envelope& msg) override;
  void on_timer(std::uint64_t timer_type) override;

 private:
  // Message handlers.
  void handle_join(const dr_msg& m);
  void handle_add_child(const dr_msg& m);
  void handle_leave(const dr_msg& m);
  void handle_check_structure_msg(const dr_msg& m);
  void handle_initiate_new_connection(const dr_msg& m);
  void handle_batch_up(spatial::peer_id from, const dr_batch_msg& m);
  void handle_batch_down(const dr_batch_msg& m);
  void handle_search_up(const dr_msg& m);
  void handle_search_down(const dr_msg& m);

  // Join helpers.
  void descend_join(std::size_t h, dr_msg m);
  void root_grow(const dr_msg& m);
  /// ADD_CHILD(q, t) of Fig. 8: attach subtree root q of height t under
  /// this peer's instance at t+1 (splitting on overflow).
  void add_child_at(std::size_t t, spatial::peer_id q,
                    const spatial::box& q_mbr);

  // Fig. 7 helper functions.
  bool is_root_at(std::size_t h) const;
  spatial::peer_id choose_best_child(std::size_t h,
                                     const spatial::box& r) const;
  void compute_mbr(std::size_t h);  // Compute_MBR(p, l)
  /// Dirty-mark the parent above `ins` (at h + 1) when it is another
  /// peer: a change to this instance can break an invariant only the
  /// parent's pass checks.
  void mark_foreign_parent(const instance& ins, std::size_t h);

  bool is_better_mbr_cover(std::size_t h, spatial::peer_id q) const;
  /// Adjust_Parent generalized to keep instance chains contiguous: q
  /// replaces this peer at heights [h, top()].
  void promote_child(std::size_t h, spatial::peer_id q);

  /// Elect a group leader per the configured policy (Fig. 6: the member
  /// with the largest MBR coverage).
  spatial::peer_id elect(const std::vector<spatial::peer_id>& members,
                         const std::vector<spatial::box>& mbrs) const;

  /// Area clamped to the workspace so unbounded filters stay comparable.
  double coverage_area(const spatial::box& b) const;

  // Split path (Fig. 8, else-branch of ADD_CHILD).
  void split_and_push(std::size_t h, spatial::peer_id extra,
                      const spatial::box& extra_mbr);

  // Compaction (Fig. 14).
  spatial::peer_id search_compaction_candidate(std::size_t h,
                                               spatial::peer_id q) const;
  /// Best_Set_Cover: among s and t, who better covers the union of their
  /// children sets (smaller uncovered area wins).
  spatial::peer_id best_set_cover(std::size_t h, spatial::peer_id s,
                                  spatial::peer_id t) const;
  void compact(std::size_t h, spatial::peer_id q, spatial::peer_id cand);
  void merge_children(std::size_t h, spatial::peer_id leader,
                      spatial::peer_id absorbed);
  /// Rebalance when no merge fits within M: borrow children for the
  /// underloaded child `needy` (at h-1) from its richest sibling.
  /// Returns true when `needy` reached the m bound.
  bool redistribute(std::size_t h, spatial::peer_id needy);

  // Dissemination helpers.  `hop` counts network messages traversed;
  // an event mask selects events of a batch (bit i = evs[i]).
  void deliver_local(const spatial::event& ev, std::size_t hop);
  /// Push the `live` events into every child subtree of the instance at
  /// `h` whose MBR admits them, skipping `skip` — the child the batch
  /// arrived from (kNoPeer when descending).  Each child gets one
  /// envelope holding just its admitted subset; the own-instance chain is
  /// descended in-process.
  void fan_out_batch(std::size_t h, const spatial::event* evs,
                     std::uint64_t live, std::size_t hop,
                     spatial::peer_id skip);
  /// Deliver every event of `m` this peer has not seen; returns their mask.
  std::uint64_t deliver_fresh(const dr_batch_msg& m);
  bool already_seen(std::uint64_t event_id);

  // FP-driven reorganization (§3.2, E15).
  void record_instance_event(std::size_t h, const spatial::event& ev);
  void maybe_reorganize(std::size_t h);

  void send_msg(spatial::peer_id to, dr_msg m);
  /// Send the events of `mask` as one envelope of kind `kind` addressed
  /// to height `h`.  Only the used prefix travels (bytes_for(count)), so
  /// small batches ride small pool size classes.
  void send_batch(spatial::peer_id to, msg_kind kind, std::size_t h,
                  std::size_t hops_left, std::size_t hop,
                  const spatial::event* evs, std::uint64_t mask);
  void rejoin_fragment(std::size_t h);

  /// This peer's failure detector: q is alive and no network partition
  /// separates it from us.  Every protocol-level liveness check routes
  /// through here (never overlay_.alive directly), so an unreachable
  /// peer is treated exactly like a crashed one — the precondition for
  /// honest split-brain behavior under partitions.
  bool sees(spatial::peer_id q) const;

  /// One entry per owned instance, ascending by height.  The instance
  /// data itself lives in the overlay's shard-local instance_arena; the
  /// peer holds only (height, slot) handles, so iterating a peer's chain
  /// is a scan over a tiny inline vector and the state it points at is
  /// packed in arena slabs.
  struct level_ref {
    std::size_t height = 0;
    inst_slot slot = kNoSlot;
  };
  const level_ref* find_ref(std::size_t h) const;
  level_ref* find_ref(std::size_t h);

  // Dirty-mode stabilize scheduling (DESIGN.md §11).  The peer keeps a
  // virtual tick chain — tick i at phase + i*period, advanced stepwise
  // with the same `+= period` arithmetic the periodic re-arm uses, so
  // tick times are bit-identical across modes — and arms one quiet
  // one-shot timer at either the next tick (chain dirty, or root: the
  // probe keeps fragment discovery prompt and costs O(1) per period) or
  // the next background-sweep tick with (idx + pid) % sweep_stride == 0.
  // Timers carry the generation in the type's high 32 bits; a bumped
  // generation strands any superseded timer.
  void stab_advance_chain_past(sim::sim_time t);
  bool stab_chain_dirty() const;
  void stab_arm();
  void stab_on_fire(std::uint32_t gen);

  dr_overlay& overlay_;
  spatial::box filter_;
  std::vector<level_ref> levels_;
  repair_stats repairs_;

  // Dissemination loop guard under corrupted topologies: recently seen
  // event ids (bounded ring).
  std::vector<std::uint64_t> seen_events_;
  std::size_t seen_cursor_ = 0;

  // Hot-path scratch, reused across messages so the publish/search loops
  // never allocate: the local-descent worklist of handle_search_down and
  // the per-pass height snapshot of stabilize_pass.
  std::vector<std::size_t> search_scratch_;
  std::vector<std::size_t> heights_scratch_;

  // Dirty-mode scheduling state (full mode never touches these).
  sim::sim_time stab_tick_time_ = 0.0;  ///< time of tick stab_tick_idx_
  std::int64_t stab_tick_idx_ = 0;      ///< next tick not yet passed
  std::int64_t stab_armed_idx_ = -1;    ///< tick the live timer targets
  std::int64_t stab_last_fired_idx_ = -1;
  std::uint32_t stab_gen_ = 0;  ///< stamps quiet timers; bump = cancel
  bool stab_in_pass_ = false;   ///< suppress pull-ins from own repairs
  /// Root-probe sends (counted in both modes, read by the dirty-mode
  /// safety net): the one message a fixed-point pass still emits.
  std::uint64_t stab_probe_msgs_ = 0;
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_PEER_H
