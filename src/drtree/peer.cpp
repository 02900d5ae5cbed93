#include "drtree/peer.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "drtree/overlay.h"
#include "util/expect.h"

namespace drt::overlay {

using spatial::box;
using spatial::kNoPeer;
using spatial::peer_id;

// ------------------------------------------------------------- instance

bool instance::remove_child(peer_id q) {
  const auto it = std::find(children.begin(), children.end(), q);
  if (it == children.end()) return false;
  children.erase(it);
  return true;
}

// -------------------------------------------------------------- dr_peer

namespace {
constexpr std::uint64_t kReorgMinEvents = 16;

// Event masks: bit i selects evs[i] of a batch (one word holds a batch).
static_assert(dr_batch_msg::kMaxEvents <= 64);

/// The mask selecting evs[0..n).
std::uint64_t first_n(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Calls fn(i) for every set bit i of `mask`, ascending.
template <typename Fn>
void for_each_event(std::uint64_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(static_cast<unsigned>(std::countr_zero(mask)));
  }
}

/// The fan-out admit test: the events of `live` whose value lies in the
/// subtree's MBR (§2.3: an event descends every subtree containing it).
std::uint64_t admitted(const box& mbr, const spatial::event* evs,
                       std::uint64_t live) {
  std::uint64_t out = 0;
  for_each_event(live, [&](unsigned i) {
    if (mbr.contains(evs[i].value)) out |= std::uint64_t{1} << i;
  });
  return out;
}
}  // namespace

dr_peer::dr_peer(dr_overlay& overlay, box filter)
    : overlay_(overlay), filter_(filter) {
  seen_events_.assign(std::max<std::size_t>(1, overlay.config().seen_ring), 0);
  // Every peer always owns its leaf instance; a fresh peer is the root of
  // its own single-node fragment.
  const auto slot = overlay_.arena().acquire(0);
  auto& leaf = overlay_.arena().at(slot);
  leaf.mbr = filter_;
  leaf.parent = kNoPeer;  // set to self id in on_start (id unknown here)
  levels_.push_back({0, slot});
}

dr_peer::~dr_peer() {
  // Slots go back to the arena only here: a crashed peer keeps its (now
  // stale) instances, exactly as the transient-fault model demands.
  for (const auto& ref : levels_) overlay_.arena().release(ref.slot);
}

const dr_peer::level_ref* dr_peer::find_ref(std::size_t h) const {
  for (const auto& ref : levels_) {
    if (ref.height == h) return &ref;
    if (ref.height > h) break;  // ascending order
  }
  return nullptr;
}

dr_peer::level_ref* dr_peer::find_ref(std::size_t h) {
  return const_cast<level_ref*>(
      static_cast<const dr_peer*>(this)->find_ref(h));
}

instance& dr_peer::inst(std::size_t h) {
  auto* ref = find_ref(h);
  DRT_ENSURE(ref != nullptr);
  return overlay_.arena().at(ref->slot);
}

const instance& dr_peer::inst(std::size_t h) const {
  const auto* ref = find_ref(h);
  DRT_ENSURE(ref != nullptr);
  return overlay_.arena().at(ref->slot);
}

instance* dr_peer::find_inst(std::size_t h) {
  auto* ref = find_ref(h);
  return ref == nullptr ? nullptr : &overlay_.arena().at(ref->slot);
}

const instance* dr_peer::find_inst(std::size_t h) const {
  const auto* ref = find_ref(h);
  return ref == nullptr ? nullptr : &overlay_.arena().at(ref->slot);
}

instance& dr_peer::ensure_inst(std::size_t h) {
  if (auto* ref = find_ref(h)) return overlay_.arena().at(ref->slot);
  const auto slot = overlay_.arena().acquire(h);
  const auto at = std::find_if(levels_.begin(), levels_.end(),
                               [h](const level_ref& r) { return r.height > h; });
  levels_.insert(at, {h, slot});
  // A freshly created instance is unvalidated state: schedule its owner.
  overlay_.mark_dirty(pid(), h);
  return overlay_.arena().at(slot);
}

void dr_peer::erase_inst(std::size_t h) {
  if (h == 0) return;  // the leaf instance is permanent
  const auto it = std::find_if(levels_.begin(), levels_.end(),
                               [h](const level_ref& r) { return r.height == h; });
  if (it == levels_.end()) return;
  // A released slot may be reacquired by another peer: its dirty bit must
  // not travel with it (and must not leak dirty_pending_).
  overlay_.test_and_clear_dirty(it->slot);
  overlay_.arena().release(it->slot);
  levels_.erase(it);
  overlay_.mark_dirty(pid(), 0);  // chain shape changed
}

std::size_t dr_peer::top() const {
  DRT_ENSURE(!levels_.empty());
  return levels_.back().height;
}

bool dr_peer::is_root() const {
  return overlay_.arena().at(levels_.back().slot).parent == pid();
}

bool dr_peer::is_root_at(std::size_t h) const {
  const auto* ins = find_inst(h);
  return ins != nullptr && ins->parent == pid() && h == top();
}

std::vector<std::size_t> dr_peer::instance_heights() const {
  std::vector<std::size_t> out;
  out.reserve(levels_.size());
  for (const auto& ref : levels_) out.push_back(ref.height);
  return out;
}

// --------------------------------- dirty-set scheduling (DESIGN.md §11)

inst_slot dr_peer::slot_for_mark(std::size_t h) const {
  const auto* ref = find_ref(h);
  // The leaf is permanent and levels_ is ascending, so front() is the
  // fallback for marks addressed at a height this peer no longer owns: a
  // mark anywhere schedules the whole chain.
  return ref != nullptr ? ref->slot : levels_.front().slot;
}

void dr_peer::note_marked() {
  if (overlay_.config().stabilize != stabilize_mode::dirty) return;
  if (stab_in_pass_) return;       // the pass-end re-arm sees the bit
  if (stab_armed_idx_ < 0) return;  // on_start has not armed yet
  stab_advance_chain_past(sim().now());
  if (stab_armed_idx_ <= stab_tick_idx_) return;  // already due next tick
  // Parked at a later background-sweep tick: pull the timer in.  The
  // generation bump strands the parked one-shot; stab_arm targets the
  // next tick because the chain is now dirty.
  ++stab_gen_;
  stab_arm();
}

void dr_peer::stab_advance_chain_past(sim::sim_time t) {
  const auto period = overlay_.config().stabilize_period;
  while (stab_tick_time_ <= t) {
    stab_tick_time_ += period;  // same arithmetic as the periodic re-arm
    ++stab_tick_idx_;
  }
}

bool dr_peer::stab_chain_dirty() const {
  for (const auto& ref : levels_) {
    if (overlay_.is_dirty(ref.slot)) return true;
  }
  return false;
}

void dr_peer::stab_arm() {
  const auto period = overlay_.config().stabilize_period;
  std::int64_t target = stab_tick_idx_;
  if (!stab_chain_dirty() && !is_root()) {
    // Clean non-root: park at the next background-sweep tick.  The
    // (idx + pid) % K stagger spreads the sweep so 1/K of a quiescent
    // population runs per period.  Roots fire every tick — their probe
    // is what lets detached fragments find the structure promptly, it
    // keeps the dirty-mode repair schedule aligned with full mode's, and
    // at one O(1) pass per period it never threatens the O(changed)
    // bound.  (The probe send is exempted from the pass-end safety net,
    // so an always-on root still reads as backlog-clean.)
    const auto k = static_cast<std::int64_t>(
        std::max<std::size_t>(std::size_t{1}, overlay_.config().sweep_stride));
    const auto offs = (target + static_cast<std::int64_t>(pid())) % k;
    if (offs != 0) target += k - offs;
  }
  stab_armed_idx_ = target;
  const auto at =
      stab_tick_time_ +
      static_cast<sim::sim_time>(target - stab_tick_idx_) * period;
  sim().schedule_quiet_timer(
      id(), kTimerStabilize | (static_cast<std::uint64_t>(stab_gen_) << 32),
      std::max<sim::sim_time>(0.0, at - sim().now()));
}

void dr_peer::stab_on_fire(std::uint32_t gen) {
  if (gen != stab_gen_) return;  // superseded by a pull-in or restart
  // Lazy skipped accounting: every tick between the last fired one and
  // the one this timer targeted was a pass full mode would have run.
  overlay_.stab_stats().skipped += static_cast<std::uint64_t>(
      stab_armed_idx_ - (stab_last_fired_idx_ + 1));
  stab_last_fired_idx_ = stab_armed_idx_;
  stab_armed_idx_ = -1;
  // Advance by index, not by time comparison: the fired tick is exactly
  // stab_last_fired_idx_, so the chain stays bit-exact under float
  // round-trips through the event queue.
  {
    const auto period = overlay_.config().stabilize_period;
    while (stab_tick_idx_ <= stab_last_fired_idx_) {
      stab_tick_time_ += period;
      ++stab_tick_idx_;
    }
  }
  // Consume this peer's marks up front; marks set during the pass (own
  // repairs touching own slots) survive into stab_arm and schedule the
  // revisit that drives repairs to a fixed point.
  for (const auto& ref : levels_) overlay_.test_and_clear_dirty(ref.slot);
  const auto msgs_before = sim().metrics().messages_sent;
  const auto probes_before = stab_probe_msgs_;
  const auto levels_before = levels_.size();
  const auto& r = repairs_;
  const auto repairs_before = r.mbr_fixed + r.own_chain_fixed + r.rejoins +
                              r.children_discarded + r.instances_dissolved +
                              r.cover_promotions + r.compactions +
                              r.redistributions + r.subtree_dissolutions;
  stab_in_pass_ = true;
  stabilize_pass();
  stab_in_pass_ = false;
  const auto repairs_after = r.mbr_fixed + r.own_chain_fixed + r.rejoins +
                             r.children_discarded + r.instances_dissolved +
                             r.cover_promotions + r.compactions +
                             r.redistributions + r.subtree_dissolutions;
  // The root's discovery probe is the one send a pass performs even at a
  // fixed point; exclude it or a stable root re-marks itself forever.
  const auto probe_sends = stab_probe_msgs_ - probes_before;
  if (sim().metrics().messages_sent - msgs_before != probe_sends ||
      levels_.size() != levels_before || repairs_after != repairs_before) {
    // The pass changed something: not at a fixed point yet, revisit next
    // tick even if no marking site fired (safety net).  The pass ran
    // this chain bottom-up, so only the top instance's parent, on
    // another peer, has checks the change may have broken.
    overlay_.mark_dirty(pid(), 0);
    mark_foreign_parent(inst(top()), top());
  }
  stab_arm();
}

// ----------------------------------------------------------- lifecycle

void dr_peer::on_start() {
  inst(0).parent = pid();  // fragment root until attached
  const auto period = overlay_.config().stabilize_period;
  if (overlay_.config().stabilize == stabilize_mode::dirty) {
    // Same phase draw as the periodic path (one uniform_real per
    // on_start in both modes keeps the RNG streams aligned); the virtual
    // tick chain replaces the periodic timer.  restart() re-enters here:
    // the generation bump strands any timer of the previous incarnation.
    const auto phase = sim().rng().uniform_real(0.1, period);
    stab_tick_time_ = sim().now() + phase;
    stab_tick_idx_ = 0;
    stab_armed_idx_ = -1;
    stab_last_fired_idx_ = -1;
    ++stab_gen_;
    // A freshly (re)started peer must stabilize promptly — its state may
    // be a stale pre-crash snapshot.
    overlay_.mark_dirty(pid(), 0);
    stab_arm();
    return;
  }
  // (Re)arm the stabilization timer; restart() re-enters here, so cancel
  // any previous chain first.
  sim().cancel_periodic(id(), kTimerStabilize);
  sim().schedule_periodic(id(), kTimerStabilize, period,
                          sim().rng().uniform_real(0.1, period));
}

void dr_peer::start_join(peer_id contact) {
  inst(0).parent = pid();
  overlay_.mark_dirty(pid(), 0);  // detached until the join lands
  if (contact == kNoPeer || contact == pid()) return;  // first peer: root
  dr_msg m;
  m.kind = msg_kind::join_request;
  m.subject = pid();
  m.h = top();
  m.mbr = inst(top()).mbr;
  m.hops_left = overlay_.config().max_route_hops;
  send_msg(contact, m);
}

void dr_peer::announce_leave() {
  if (is_root()) return;  // nobody to notify; children self-repair
  const auto& t = inst(top());
  dr_msg m;
  m.kind = msg_kind::leave;
  m.subject = pid();
  m.h = top();
  m.hops_left = 1;
  send_msg(t.parent, m);
}

void dr_peer::leave_with_handoff() {
  // Replace this peer's instance chain with a chain of elected leaders,
  // top-down.  At each height h the group C^h_p minus this peer elects a
  // leader (Fig. 6 rule) that takes over the instance; the leader at h is
  // wired as a child of the leader at h+1 (or of the old parent at the
  // top), so every subtree stays connected.
  peer_id upper = kNoPeer;  // leader elected one level above
  const auto heights = instance_heights();
  for (auto it = heights.rbegin(); it != heights.rend(); ++it) {
    const auto h = *it;
    if (h == 0) break;
    auto* ins = find_inst(h);
    if (ins == nullptr) continue;

    std::vector<peer_id> members;
    std::vector<box> mbrs;
    for (const auto c : ins->children) {
      if (c == pid() || !sees(c)) continue;
      const auto* ci = overlay_.peer(c).find_inst(h - 1);
      if (ci == nullptr) continue;
      members.push_back(c);
      mbrs.push_back(ci->mbr);
    }
    if (members.empty()) continue;  // degenerate group: nothing to save

    const auto leader = elect(members, mbrs);
    auto& lp = overlay_.peer(leader);
    auto& li = lp.ensure_inst(h);
    li.children = members;
    li.mbr = box::empty();
    for (std::size_t i = 0; i < members.size(); ++i) {
      li.mbr = join(li.mbr, mbrs[i]);
      if (auto* ci = overlay_.peer(members[i]).find_inst(h - 1)) {
        ci->parent = leader;
      }
    }
    li.underloaded = li.children.size() < overlay_.config().min_children;
    overlay_.mark_dirty(leader, h);
    for (const auto c : members) overlay_.mark_dirty(c, h - 1);

    if (upper == kNoPeer) {
      // Topmost instance: splice the leader where this peer was.
      const auto old_parent = ins->parent;
      if (old_parent == pid()) {
        li.parent = leader;  // the leader becomes the new root
      } else {
        li.parent = old_parent;
        if (old_parent != kNoPeer && sees(old_parent)) {
          if (auto* pi = overlay_.peer(old_parent).find_inst(h + 1)) {
            if (pi->remove_child(pid())) pi->add_child(leader);
            overlay_.peer(old_parent).compute_mbr(h + 1);
            overlay_.mark_dirty(old_parent, h + 1);
          }
        }
      }
    } else {
      li.parent = upper;
      if (auto* ui = overlay_.peer(upper).find_inst(h + 1)) {
        ui->remove_child(pid());
        ui->add_child(leader);
        overlay_.peer(upper).compute_mbr(h + 1);
        ui->underloaded =
            ui->children.size() < overlay_.config().min_children;
        overlay_.mark_dirty(upper, h + 1);
      }
    }
    upper = leader;
  }
}

void dr_peer::on_timer(std::uint64_t timer_type) {
  // Dirty-mode one-shots stamp their arming generation into the high 32
  // bits of the type (full mode's periodic carries plain kTimerStabilize,
  // i.e. generation bits 0), so both modes dispatch on the low half.
  if ((timer_type & 0xffffffffull) != kTimerStabilize) return;
  if (overlay_.config().stabilize == stabilize_mode::dirty) {
    stab_on_fire(static_cast<std::uint32_t>(timer_type >> 32));
  } else {
    stabilize_pass();
  }
}

bool dr_peer::sees(peer_id q) const { return overlay_.reachable(pid(), q); }

void dr_peer::send_msg(peer_id to, dr_msg m) {
  if (to == kNoPeer) return;
  sim().send<dr_msg>(id(), to, static_cast<std::uint64_t>(m.kind),
                     std::move(m));
}

void dr_peer::send_batch(peer_id to, msg_kind kind, std::size_t h,
                         std::size_t hops_left, std::size_t hop,
                         const spatial::event* evs, std::uint64_t mask) {
  if (to == kNoPeer) return;
  // One envelope reused per thread: a fresh dr_batch_msg zero-fills all
  // kMaxEvents slots (about 2 KiB) on every send, yet only the prefix of
  // `count` events travels.
  thread_local dr_batch_msg m;
  m.kind = kind;
  m.count = 0;
  m.h = static_cast<std::uint32_t>(h);
  m.hops_left = static_cast<std::uint32_t>(hops_left);
  m.hop = static_cast<std::uint32_t>(hop);
  for_each_event(mask, [&](unsigned i) { m.events[m.count++] = evs[i]; });
  sim().send_prefix<dr_batch_msg>(id(), to, static_cast<std::uint64_t>(kind),
                                  m, dr_batch_msg::bytes_for(m.count));
}

void dr_peer::on_message(sim::process_id from, std::uint64_t type,
                         const sim::envelope& msg) {
  // The wire type doubles as the msg_kind (send_msg/send_batch both stamp
  // it), so the payload struct can differ per kind: events ride the
  // variable-size dr_batch_msg, everything else the full dr_msg.
  switch (static_cast<msg_kind>(type)) {
    case msg_kind::event_up: {
      const auto* m = msg.visit<dr_batch_msg>();
      DRT_EXPECT(m != nullptr);
      handle_batch_up(static_cast<peer_id>(from), *m);
      return;
    }
    case msg_kind::event_down: {
      const auto* m = msg.visit<dr_batch_msg>();
      DRT_EXPECT(m != nullptr);
      handle_batch_down(*m);
      return;
    }
    default: break;
  }
  const auto* mp = msg.visit<dr_msg>();
  DRT_EXPECT(mp != nullptr);
  const auto& m = *mp;
  switch (m.kind) {
    case msg_kind::join_request: handle_join(m); break;
    case msg_kind::add_child: handle_add_child(m); break;
    case msg_kind::leave: handle_leave(m); break;
    case msg_kind::check_structure: handle_check_structure_msg(m); break;
    case msg_kind::initiate_new_connection:
      handle_initiate_new_connection(m);
      break;
    case msg_kind::search_up: handle_search_up(m); break;
    case msg_kind::search_down: handle_search_down(m); break;
    case msg_kind::search_hit:
      overlay_.record_search_hit(m.query_id, m.subject, m.hop);
      break;
    default: break;
  }
}

// -------------------------------------------------------- join (Fig. 8)

void dr_peer::handle_join(const dr_msg& m) {
  if (m.subject == pid()) return;  // own probe came back around
  if (!sees(m.subject)) return;
  if (m.hops_left == 0) return;  // stabilization will retry

  if (m.descending) {
    descend_join(top(), m);
    return;
  }

  // Ascending phase: relay toward the root ("the joining subscriber is
  // recursively redirected upward the tree until it reaches the root").
  if (!is_root()) {
    const auto parent = inst(top()).parent;
    if (parent != kNoPeer && parent != pid() && sees(parent)) {
      dr_msg fwd = m;
      --fwd.hops_left;
      send_msg(parent, fwd);
      return;
    }
    // Broken parent link: act as a fragment root below.
  }

  const std::size_t mine = top();
  if (m.h < mine) {
    dr_msg fwd = m;
    fwd.descending = true;
    descend_join(mine, fwd);
  } else if (m.h == mine) {
    // Two fragments of equal height merge under a freshly elected root.
    // Only the smaller id absorbs, so two roots probing each other
    // concurrently cannot build a cycle.
    if (pid() < m.subject) root_grow(m);
  } else {
    // The joining fragment is taller: reverse roles and join *it*.
    dr_msg reversed;
    reversed.kind = msg_kind::join_request;
    reversed.subject = pid();
    reversed.h = mine;
    reversed.mbr = inst(mine).mbr;
    reversed.hops_left = overlay_.config().max_route_hops;
    send_msg(m.subject, reversed);
  }
}

void dr_peer::descend_join(std::size_t h, dr_msg m) {
  // Route the joining subtree (height m.h) down from this peer's instance
  // at height h until reaching the last level above it.
  while (true) {
    auto* ins = find_inst(h);
    if (ins == nullptr || h <= m.h) return;  // corrupted route: retry later
    // "adjusts its MBR in order to include the new subscription"
    const auto grown = join(ins->mbr, m.mbr);
    if (!(grown == ins->mbr)) mark_foreign_parent(*ins, h);
    ins->mbr = grown;
    overlay_.mark_dirty(pid(), h);  // MBR grew on the descent path
    if (h == m.h + 1) {
      add_child_at(m.h, m.subject, m.mbr);
      return;
    }
    const auto best = choose_best_child(h, m.mbr);
    if (best == kNoPeer) return;  // childless interior: corrupt, bail out
    if (best == pid()) {
      --h;  // own lower instance: continue locally
      continue;
    }
    dr_msg fwd = m;
    fwd.descending = true;
    if (fwd.hops_left == 0) return;
    --fwd.hops_left;
    send_msg(best, fwd);
    return;
  }
}

peer_id dr_peer::choose_best_child(std::size_t h, const box& r) const {
  // Guttman ChooseLeaf criterion: least MBR enlargement, ties by area.
  const auto* ins = find_inst(h);
  if (ins == nullptr) return kNoPeer;
  peer_id best = kNoPeer;
  double best_grow = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto q : ins->children) {
    const box* qmbr = nullptr;
    if (q == pid()) {
      const auto* lower = find_inst(h - 1);
      if (lower == nullptr) continue;
      qmbr = &lower->mbr;
    } else {
      if (!sees(q)) continue;
      const auto* lower = overlay_.peer(q).find_inst(h - 1);
      if (lower == nullptr) continue;
      qmbr = &lower->mbr;
    }
    const auto clamped = qmbr->clamped(overlay_.config().workspace);
    const double grow = clamped.enlargement(r.clamped(overlay_.config().workspace));
    const double area = clamped.area();
    if (grow < best_grow || (grow == best_grow && area < best_area) ||
        (grow == best_grow && area == best_area && q < best)) {
      best_grow = grow;
      best_area = area;
      best = q;
    }
  }
  return best;
}

void dr_peer::root_grow(const dr_msg& m) {
  // Merge a same-height fragment rooted at m.subject: elect the new root
  // among the two, which creates an instance one level up with both as
  // children (the bootstrap case and Create_Root of Fig. 8).
  const std::size_t h = top();
  const auto q = m.subject;
  auto& qp = overlay_.peer(q);
  // Stale probe: the fragment has grown/shrunk since it was sent.
  if (!qp.has_instance(h) || qp.top() != h) return;

  const auto winner =
      elect({pid(), q}, {inst(h).mbr, qp.inst(h).mbr});
  auto& wp = overlay_.peer(winner);
  auto& wi = wp.ensure_inst(h + 1);
  wi.parent = winner;
  wi.children.clear();
  wi.add_child(pid());
  wi.add_child(q);
  wi.mbr = join(inst(h).mbr, qp.inst(h).mbr);
  wi.underloaded = wi.children.size() < overlay_.config().min_children;
  inst(h).parent = winner;
  qp.inst(h).parent = winner;
  overlay_.mark_dirty(pid(), h);
  overlay_.mark_dirty(q, h);
  overlay_.mark_dirty(winner, h + 1);
}

void dr_peer::add_child_at(std::size_t t, peer_id q, const box& q_mbr) {
  if (q == pid() || !sees(q)) return;
  // Stale request: the subject is no longer a subtree root of height t.
  if (overlay_.peer(q).top() != t) return;
  if (!has_instance(t + 1)) {
    if (is_root_at(t) ) {
      // A root leaf/low fragment accepting a same-height sibling.
      dr_msg m;
      m.subject = q;
      m.h = t;
      m.mbr = q_mbr;
      root_grow(m);
      return;
    }
    return;  // cannot attach here; the subject's stabilizer will retry
  }
  auto& ins = inst(t + 1);
  auto& qp = overlay_.peer(q);
  if (ins.has_child(q)) {
    if (auto* qi = qp.find_inst(t)) qi->parent = pid();
    compute_mbr(t + 1);
    overlay_.mark_dirty(pid(), t + 1);
    overlay_.mark_dirty(q, t);
    return;
  }
  if (ins.children.size() < overlay_.config().max_children) {
    // Adjust_Children(p, q, l).
    ins.add_child(q);
    auto& qi = qp.ensure_inst(t);
    qi.parent = pid();
    const auto grown = join(ins.mbr, qi.mbr.is_empty() ? q_mbr : qi.mbr);
    if (!(grown == ins.mbr)) mark_foreign_parent(ins, t + 1);
    ins.mbr = grown;
    ins.underloaded = ins.children.size() < overlay_.config().min_children;
    overlay_.mark_dirty(pid(), t + 1);
    overlay_.mark_dirty(q, t);
    // Fig. 8: "if Is_Better_MBR_Cover(p, q, l) then Adjust_Parent".
    if (is_better_mbr_cover(t + 1, q)) promote_child(t + 1, q);
  } else {
    split_and_push(t + 1, q, q_mbr);
  }
}

void dr_peer::split_and_push(std::size_t h, peer_id extra,
                             const box& extra_mbr) {
  auto& ins = inst(h);
  // Pack the live children plus the incoming one for the split policy.
  std::vector<rtree::split_entry<spatial::kDims>> entries;
  for (const auto c : ins.children) {
    const box* cmbr = nullptr;
    if (c == pid()) {
      const auto* lower = find_inst(h - 1);
      if (lower == nullptr) continue;
      cmbr = &lower->mbr;
    } else {
      if (!sees(c)) continue;
      const auto* lower = overlay_.peer(c).find_inst(h - 1);
      if (lower == nullptr) continue;
      cmbr = &lower->mbr;
    }
    entries.push_back({cmbr->clamped(overlay_.config().workspace), c});
  }
  entries.push_back({extra_mbr.clamped(overlay_.config().workspace), extra});

  const auto m_min = overlay_.config().min_children;
  if (entries.size() <= overlay_.config().max_children ||
      entries.size() < 2 * m_min) {
    // Dead children freed enough slots (or too few live entries to split
    // legally): attach directly.
    ins.children.clear();
    for (const auto& e : entries) ins.children.push_back(
        static_cast<peer_id>(e.handle));
    auto& qi = overlay_.peer(extra).ensure_inst(h - 1);
    qi.parent = pid();
    compute_mbr(h);
    ins.underloaded = ins.children.size() < m_min;
    overlay_.mark_dirty(pid(), h);
    overlay_.mark_dirty(extra, h - 1);
    return;
  }

  auto outcome = rtree::split_entries<spatial::kDims>(
      std::move(entries), m_min, overlay_.config().split);
  // The group containing this peer's own lower instance stays here so the
  // "recursively its own child" chain is preserved.
  auto in_group = [&](const std::vector<rtree::split_entry<spatial::kDims>>& g) {
    for (const auto& e : g) {
      if (static_cast<peer_id>(e.handle) == pid()) return true;
    }
    return false;
  };
  if (in_group(outcome.right)) std::swap(outcome.left, outcome.right);

  ins.children.clear();
  for (const auto& e : outcome.left) {
    const auto c = static_cast<peer_id>(e.handle);
    ins.children.push_back(c);
    if (c == pid()) continue;
    auto& ci = overlay_.peer(c).ensure_inst(h - 1);
    ci.parent = pid();
    overlay_.mark_dirty(c, h - 1);
  }
  compute_mbr(h);
  ins.underloaded = ins.children.size() < m_min;
  overlay_.mark_dirty(pid(), h);

  // Elect the right group's leader (Fig. 6 root election) and hand it the
  // group.
  std::vector<peer_id> members;
  std::vector<box> mbrs;
  for (const auto& e : outcome.right) {
    members.push_back(static_cast<peer_id>(e.handle));
    mbrs.push_back(e.mbr);
  }
  const auto leader = elect(members, mbrs);
  auto& lp = overlay_.peer(leader);
  auto& li = lp.ensure_inst(h);
  li.children.clear();
  li.mbr = box::empty();
  for (std::size_t i = 0; i < members.size(); ++i) {
    li.children.push_back(members[i]);
    li.mbr = join(li.mbr, mbrs[i]);
    if (members[i] == leader) continue;
    auto& ci = overlay_.peer(members[i]).ensure_inst(h - 1);
    ci.parent = leader;
    overlay_.mark_dirty(members[i], h - 1);
  }
  if (auto* own = lp.find_inst(h - 1)) own->parent = leader;
  li.underloaded = li.children.size() < m_min;
  overlay_.mark_dirty(leader, h);

  if (is_root_at(h)) {
    // Root split: "this process eventually stops with the split of the
    // root, which generates ... the election of a new root".
    const auto winner = elect({pid(), leader}, {ins.mbr, li.mbr});
    auto& wp = overlay_.peer(winner);
    auto& wi = wp.ensure_inst(h + 1);
    wi.parent = winner;
    wi.children.clear();
    wi.add_child(pid());
    wi.add_child(leader);
    wi.mbr = join(ins.mbr, li.mbr);
    wi.underloaded = wi.children.size() < m_min;
    ins.parent = winner;
    li.parent = winner;
    overlay_.mark_dirty(winner, h + 1);
  } else {
    // Push the new sibling up: "the other subtree is pushed backward to
    // p's parent".
    li.parent = ins.parent;  // provisional; confirmed by the ADD_CHILD
    dr_msg m;
    m.kind = msg_kind::add_child;
    m.subject = leader;
    m.h = h;
    m.mbr = li.mbr;
    m.hops_left = 1;
    send_msg(ins.parent, m);
  }
}

// --------------------------------------------------- election (Fig. 6)

peer_id dr_peer::elect(const std::vector<peer_id>& members,
                       const std::vector<box>& mbrs) const {
  DRT_EXPECT(!members.empty());
  DRT_EXPECT(members.size() == mbrs.size());
  const auto policy = overlay_.config().election;
  if (policy == election_policy::random_member) {
    // Deterministic under the simulator's seeded RNG.
    return members[overlay_.rng().index(members.size())];
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < members.size(); ++i) {
    const double a = coverage_area(mbrs[i]);
    const double b = coverage_area(mbrs[best]);
    const bool better = policy == election_policy::largest_mbr
                            ? a > b
                            : a < b;
    if (better || (a == b && members[i] < members[best])) best = i;
  }
  return members[best];
}

double dr_peer::coverage_area(const box& b) const {
  return b.clamped(overlay_.config().workspace).area();
}

bool dr_peer::is_better_mbr_cover(std::size_t h, peer_id q) const {
  // Is_Better_MBR_Cover(p, q, l): compare q's MBR with this peer's own
  // lower-instance MBR (both are children at h-1).
  if (q == pid() || !sees(q)) return false;
  const auto policy = overlay_.config().election;
  if (policy == election_policy::random_member) return false;
  const auto* qi = overlay_.peer(q).find_inst(h - 1);
  if (qi == nullptr) return false;
  const auto* own = find_inst(h - 1);
  if (own == nullptr) return true;  // own chain broken: any child beats us
  const double qa = coverage_area(qi->mbr);
  const double pa = coverage_area(own->mbr);
  return policy == election_policy::largest_mbr ? qa > pa : qa < pa;
}

void dr_peer::promote_child(std::size_t h, peer_id q) {
  // Adjust_Parent(p, q, l), generalized so instance chains stay
  // contiguous: q replaces this peer at every height in [h, top()].
  if (q == pid() || !sees(q) || !has_instance(h)) return;
  auto& qp = overlay_.peer(q);
  const std::size_t t = top();
  for (std::size_t x = h; x <= t; ++x) {
    auto it = std::find_if(levels_.begin(), levels_.end(),
                           [x](const level_ref& r) { return r.height == x; });
    if (it == levels_.end()) continue;
    instance moved = std::move(overlay_.arena().at(it->slot));
    overlay_.test_and_clear_dirty(it->slot);  // the slot may be reused
    overlay_.arena().release(it->slot);
    levels_.erase(it);
    // Children at x-1 >= h were this peer's instances and move to q too:
    // rename the membership entry.
    if (x > h) {
      for (auto& c : moved.children) {
        if (c == pid()) c = q;
      }
    }
    // Rewire parent pointers of all (other) children.
    for (const auto c : moved.children) {
      if (c == q) continue;
      instance* ci = nullptr;
      if (c == pid()) {
        ci = find_inst(x - 1);
      } else if (sees(c)) {
        ci = overlay_.peer(c).find_inst(x - 1);
      }
      if (ci != nullptr) {
        ci->parent = q;
        overlay_.mark_dirty(c, x - 1);
      }
    }
    // Parent link of the moved instance.
    peer_id new_parent;
    if (x < t) {
      new_parent = q;  // own chain continues upward (now q's)
    } else if (moved.parent == pid()) {
      new_parent = q;  // p was the root: q becomes the root
    } else {
      new_parent = moved.parent;
      // Fix the (distinct) parent's membership list directly.
      if (new_parent != kNoPeer && sees(new_parent)) {
        if (auto* up = overlay_.peer(new_parent).find_inst(x + 1)) {
          if (up->remove_child(pid())) up->add_child(q);
          overlay_.mark_dirty(new_parent, x + 1);
        }
      }
    }
    moved.parent = new_parent;
    // FP-reorganization counters do not transfer meaningfully.
    moved.fp_self = 0;
    moved.events_seen = 0;
    moved.fp_child_would.clear();
    auto& qi = qp.ensure_inst(x);
    qi = std::move(moved);
    if (auto* qlow = qp.find_inst(x - 1); qlow != nullptr && x == h) {
      qi.add_child(q);  // ensure q's self-child link at the seam
      qlow->parent = q;
    }
    qp.compute_mbr(x);
    overlay_.mark_dirty(q, x);
  }
  overlay_.mark_dirty(pid(), 0);  // this peer's chain shrank
}

// ----------------------------------------------------- leave (Fig. 9)

void dr_peer::handle_leave(const dr_msg& m) {
  auto* ins = find_inst(m.h + 1);
  if (ins == nullptr) return;
  if (ins->remove_child(m.subject)) {
    overlay_.mark_dirty(pid(), m.h + 1);
    compute_mbr(m.h + 1);
    // Fig. 9 re-checks its own state right away.
    check_children(m.h + 1);
    check_parent(m.h + 1);
  }
  auto* again = find_inst(m.h + 1);
  if (again == nullptr) return;
  if (again->children.size() < overlay_.config().min_children &&
      !is_root_at(m.h + 1)) {
    dr_msg up;
    up.kind = msg_kind::check_structure;
    up.h = m.h + 2;
    up.hops_left = 1;
    send_msg(again->parent, up);
  }
}

void dr_peer::handle_check_structure_msg(const dr_msg& m) {
  // Message-driven (not inside this peer's own pass): anything the module
  // changes must reschedule us, same as the pass-end safety net does.
  overlay_.mark_dirty(pid(), m.h);
  check_structure(m.h);
}

void dr_peer::handle_add_child(const dr_msg& m) {
  add_child_at(m.h, m.subject, m.mbr);
}

void dr_peer::handle_initiate_new_connection(const dr_msg& m) {
  // Dissolve the subtree rooted at this peer's instance at m.h: notify
  // the children of every instance down this peer's own chain, drop all
  // non-leaf instances, and rejoin as a bare leaf through the oracle
  // (Fig. 14).
  for (std::size_t x = std::min(m.h, top()); x >= 1; --x) {
    if (const auto* ins = find_inst(x)) {
      for (const auto q : ins->children) {
        if (q == pid() || !sees(q)) continue;
        dr_msg fwd;
        fwd.kind = msg_kind::initiate_new_connection;
        fwd.h = x - 1;
        fwd.hops_left = 1;
        send_msg(q, fwd);
      }
    }
    if (x == 1) break;
  }
  while (top() > 0) erase_inst(top());
  rejoin_fragment(0);
}

void dr_peer::rejoin_fragment(std::size_t h) {
  auto* ins = find_inst(h);
  if (ins == nullptr) return;
  ++repairs_.rejoins;
  overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairRejoin, h);
  ins->parent = pid();  // "the node sets itself as parent"
  overlay_.mark_dirty(pid(), h);  // detached fragment: keep retrying
  const auto contact = overlay_.contact_node(pid());
  if (contact == kNoPeer || contact == pid()) return;
  dr_msg m;
  m.kind = msg_kind::join_request;
  m.subject = pid();
  m.h = h;
  m.mbr = ins->mbr;
  m.hops_left = overlay_.config().max_route_hops;
  send_msg(contact, m);
}

// ------------------------------------------- stabilization (Figs. 10-14)

void dr_peer::compute_mbr(std::size_t h) {
  auto* ins = find_inst(h);
  if (ins == nullptr) return;
  auto r = filter_;
  if (h > 0) {
    r = box::empty();
    for (const auto q : ins->children) {
      const instance* qi = nullptr;
      if (q == pid()) {
        qi = find_inst(h - 1);
      } else if (sees(q)) {
        qi = overlay_.peer(q).find_inst(h - 1);
      }
      if (qi != nullptr) r = join(r, qi->mbr);
    }
  }
  const bool changed = !(ins->mbr == r);
  ins->mbr = r;
  if (!changed) return;
  // The parent's MBR is the union over this one and its cover choice
  // compares it: a parent on another peer must revisit both.  (An own
  // parent is the next instance up this chain, which the caller's pass
  // or mark already reaches.)
  mark_foreign_parent(*ins, h);
}

void dr_peer::mark_foreign_parent(const instance& ins, std::size_t h) {
  if (ins.parent != pid()) overlay_.mark_dirty(ins.parent, h + 1);
}

void dr_peer::check_mbr(std::size_t h) {
  // Fig. 10: leaves restore filter, interiors recompute the union.
  const auto* ins = find_inst(h);
  const auto before = ins == nullptr ? box::empty() : ins->mbr;
  compute_mbr(h);
  ins = find_inst(h);
  if (ins != nullptr && !(ins->mbr == before)) {
    ++repairs_.mbr_fixed;
    overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairMbr, h);
  }
}

void dr_peer::check_parent(std::size_t h) {
  auto* ins = find_inst(h);
  if (ins == nullptr) return;

  if (h < top()) {
    // Non-top instance: its parent is this peer's own next instance —
    // repairable locally without messages.
    if (ins->parent != pid()) {
      ins->parent = pid();
      ++repairs_.own_chain_fixed;
      overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairOwnChain, h);
    }
    if (auto* up = find_inst(h + 1); up != nullptr && !up->has_child(pid())) {
      up->add_child(pid());
      ++repairs_.own_chain_fixed;
      overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairOwnChain, h);
    }
    return;
  }

  const auto parent = ins->parent;
  if (parent == pid()) return;  // root claim; fragment merge via probes
  if (parent == kNoPeer || !sees(parent)) {
    rejoin_fragment(h);
    return;
  }
  // Fig. 11: verify presence in the parent's children set.
  const auto* pi = overlay_.peer(parent).find_inst(h + 1);
  if (pi == nullptr || !pi->has_child(pid())) rejoin_fragment(h);
}

void dr_peer::check_children(std::size_t h) {
  if (h == 0) return;
  auto* ins = find_inst(h);
  if (ins == nullptr) return;

  // Fig. 12: discard children that are dead, lack the instance, or point
  // to a different parent.
  std::vector<peer_id> keep;
  for (const auto q : ins->children) {
    if (std::find(keep.begin(), keep.end(), q) != keep.end()) continue;
    if (q == pid()) {
      if (find_inst(h - 1) != nullptr) keep.push_back(q);
      continue;
    }
    if (!sees(q)) continue;
    const auto* qi = overlay_.peer(q).find_inst(h - 1);
    if (qi == nullptr) continue;
    if (qi->parent != pid()) continue;  // "simply discards the child"
    keep.push_back(q);
  }
  if (ins->children.size() != keep.size()) {
    repairs_.children_discarded += ins->children.size() - keep.size();
    overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairChildDiscard,
                        h);
    // Fewer children may leave this instance underloaded, which only the
    // parent's CHECK_STRUCTURE repairs.
    mark_foreign_parent(*ins, h);
  }
  ins->children = std::move(keep);

  // Self-child link: an interior instance always contains this peer's own
  // next-lower instance.
  if (auto* own = find_inst(h - 1);
      own != nullptr && own->parent == pid()) {
    ins->add_child(pid());
  }

  compute_mbr(h);
  ins->underloaded =
      ins->children.size() < overlay_.config().min_children;

  // Degenerate instances collapse so singleton chains cannot linger.
  if (ins->children.empty()) {
    // Childless interior: dissolve this and everything above.
    while (top() >= h) {
      const auto t = top();
      if (t == 0) break;
      erase_inst(t);
      ++repairs_.instances_dissolved;
      overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairDissolve, t);
    }
    return;
  }
  if (is_root_at(h) && ins->children.size() == 1 && h == top() && h > 0) {
    // Root with a single child: the child becomes the root (tree shrinks).
    const auto only = ins->children.front();
    if (only == pid()) {
      erase_inst(h);
      if (auto* lower = find_inst(h - 1)) lower->parent = pid();
    } else if (sees(only)) {
      if (auto* ci = overlay_.peer(only).find_inst(h - 1)) {
        ci->parent = only;
        erase_inst(h);
      }
    }
  }
}

void dr_peer::check_cover(std::size_t h) {
  // Fig. 13: if some child covers the subtree better than this peer's own
  // lower instance, exchange roles with the best such child.
  const auto* ins = find_inst(h);
  if (ins == nullptr || h == 0) return;
  const auto policy = overlay_.config().election;
  if (policy == election_policy::random_member) return;
  const bool want_large = policy == election_policy::largest_mbr;
  const auto* own = find_inst(h - 1);
  peer_id best = kNoPeer;
  double best_area = 0.0;
  for (const auto q : ins->children) {
    if (q == pid() || !sees(q)) continue;
    const auto* qi = overlay_.peer(q).find_inst(h - 1);
    if (qi == nullptr) continue;
    const double a = coverage_area(qi->mbr);
    const bool beats_own =
        own == nullptr || (want_large ? a > coverage_area(own->mbr)
                                      : a < coverage_area(own->mbr));
    const bool beats_best =
        best == kNoPeer || (want_large ? a > best_area : a < best_area);
    if (beats_own && beats_best) {
      best = q;
      best_area = a;
    }
  }
  if (best != kNoPeer) {
    ++repairs_.cover_promotions;
    overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairCover, h);
    promote_child(h, best);
  }
}

peer_id dr_peer::search_compaction_candidate(std::size_t h,
                                             peer_id q) const {
  const auto* ins = find_inst(h);
  if (ins == nullptr) return kNoPeer;
  const auto* qi = overlay_.peer(q).find_inst(h - 1);
  if (qi == nullptr) return kNoPeer;

  peer_id best = kNoPeer;
  double best_waste = std::numeric_limits<double>::infinity();
  for (const auto t : ins->children) {
    if (t == q) continue;
    const instance* ti = nullptr;
    if (t == pid()) {
      ti = find_inst(h - 1);
    } else if (sees(t)) {
      ti = overlay_.peer(t).find_inst(h - 1);
    }
    if (ti == nullptr) continue;
    // Merged set must respect the M bound.
    std::size_t merged = ti->children.size();
    for (const auto c : qi->children) {
      if (!ti->has_child(c)) ++merged;
    }
    if (merged > overlay_.config().max_children) continue;
    const double waste = coverage_area(join(ti->mbr, qi->mbr)) -
                         coverage_area(ti->mbr) - coverage_area(qi->mbr);
    if (waste < best_waste || (waste == best_waste && t < best)) {
      best_waste = waste;
      best = t;
    }
  }
  return best;
}

peer_id dr_peer::best_set_cover(std::size_t h, peer_id s, peer_id t) const {
  // Best_Set_Cover: who leaves less of the merged children's MBR
  // uncovered by its own filter.
  const auto* si = overlay_.peer(s).find_inst(h);
  const auto* ti = overlay_.peer(t).find_inst(h);
  if (si == nullptr || ti == nullptr) return si != nullptr ? s : t;
  const auto set_mbr = join(si->mbr, ti->mbr);
  const auto uncovered = [&](peer_id x) {
    const auto& f = overlay_.peer(x).filter();
    return coverage_area(set_mbr) -
           set_mbr.clamped(overlay_.config().workspace).overlap_area(
               f.clamped(overlay_.config().workspace));
  };
  const double us = uncovered(s);
  const double ut = uncovered(t);
  if (us != ut) return us < ut ? s : t;
  return s < t ? s : t;
}

void dr_peer::compact(std::size_t h, peer_id q, peer_id cand) {
  // Never dissolve this peer's own lower instance: it anchors the
  // "recursively its own child" chain, so it may only absorb.
  peer_id leader;
  if (cand == pid()) {
    leader = pid();
  } else if (q == pid()) {
    leader = pid();
  } else {
    leader = best_set_cover(h - 1, q, cand);
  }
  const peer_id absorbed = (leader == q) ? cand : q;
  merge_children(h - 1, leader, absorbed);
}

void dr_peer::merge_children(std::size_t h, peer_id leader,
                             peer_id absorbed) {
  // Merge_Children(s, t, l): the leader's instance at `h` absorbs the
  // other's children; the absorbed instance dissolves.
  if (leader == absorbed) return;
  auto& lp = overlay_.peer(leader);
  auto& ap = overlay_.peer(absorbed);
  auto* li = lp.find_inst(h);
  auto* ai = ap.find_inst(h);
  if (li == nullptr || ai == nullptr) return;

  for (const auto c : ai->children) {
    if (c == absorbed) {
      // The absorbed peer's own lower instance becomes a plain child.
      if (auto* low = ap.find_inst(h - 1)) {
        low->parent = leader;
        li->add_child(absorbed);
        overlay_.mark_dirty(absorbed, h - 1);
      }
      continue;
    }
    li->add_child(c);
    instance* ci = nullptr;
    if (c == leader) {
      ci = lp.find_inst(h - 1);
    } else if (sees(c)) {
      ci = overlay_.peer(c).find_inst(h - 1);
    }
    if (ci != nullptr) {
      ci->parent = leader;
      overlay_.mark_dirty(c, h - 1);
    }
  }
  ap.erase_inst(h);
  lp.compute_mbr(h);
  li->underloaded =
      li->children.size() < overlay_.config().min_children;
  overlay_.mark_dirty(leader, h);

  // Update this (parent) node's own children list.
  if (auto* mine = find_inst(h + 1)) {
    mine->remove_child(absorbed);
    if (!mine->has_child(leader)) mine->add_child(leader);
    if (auto* lead_inst = lp.find_inst(h)) lead_inst->parent = pid();
    compute_mbr(h + 1);
    overlay_.mark_dirty(pid(), h + 1);
  }
}

bool dr_peer::redistribute(std::size_t h, peer_id needy) {
  // Move children from the richest sibling (one with more than m
  // children) into the underloaded child until it reaches m.  Children
  // whose MBR is enlarged least by the move go first.
  auto* ins = find_inst(h);
  if (ins == nullptr) return false;
  const auto m_min = overlay_.config().min_children;
  instance* needy_inst = (needy == pid())
                             ? find_inst(h - 1)
                             : overlay_.peer(needy).find_inst(h - 1);
  if (needy_inst == nullptr) return false;

  bool moved_any = false;
  while (needy_inst->children.size() < m_min) {
    // Pick the richest donor sibling.
    peer_id donor = kNoPeer;
    instance* donor_inst = nullptr;
    for (const auto t : ins->children) {
      if (t == needy || !sees(t)) continue;
      auto* ti = (t == pid()) ? find_inst(h - 1)
                              : overlay_.peer(t).find_inst(h - 1);
      if (ti == nullptr || ti->children.size() <= m_min) continue;
      if (donor_inst == nullptr ||
          ti->children.size() > donor_inst->children.size()) {
        donor = t;
        donor_inst = ti;
      }
    }
    if (donor_inst == nullptr) break;

    // Choose the donor's child that the needy MBR swallows most cheaply;
    // the donor's own lower instance must stay (chain anchor).
    peer_id pick = kNoPeer;
    double best_grow = std::numeric_limits<double>::infinity();
    for (const auto c : donor_inst->children) {
      if (c == donor) continue;
      const instance* ci = (c == pid())
                               ? find_inst(h - 2)
                               : (sees(c)
                                      ? overlay_.peer(c).find_inst(h - 2)
                                      : nullptr);
      if (ci == nullptr) continue;
      const double grow = needy_inst->mbr.clamped(overlay_.config().workspace)
                              .enlargement(ci->mbr.clamped(
                                  overlay_.config().workspace));
      if (grow < best_grow || (grow == best_grow && c < pick)) {
        best_grow = grow;
        pick = c;
      }
    }
    if (pick == kNoPeer) break;

    donor_inst->remove_child(pick);
    needy_inst->add_child(pick);
    instance* ci = (pick == pid()) ? find_inst(h - 2)
                                   : overlay_.peer(pick).find_inst(h - 2);
    if (ci != nullptr) ci->parent = needy;
    moved_any = true;
    overlay_.mark_dirty(donor, h - 1);
    overlay_.mark_dirty(needy, h - 1);
    overlay_.mark_dirty(pick, h - 2);

    // Refresh MBRs and flags of both siblings.
    if (donor == pid()) {
      compute_mbr(h - 1);
    } else {
      overlay_.peer(donor).compute_mbr(h - 1);
    }
    donor_inst->underloaded = donor_inst->children.size() < m_min;
    if (needy == pid()) {
      compute_mbr(h - 1);
    } else {
      overlay_.peer(needy).compute_mbr(h - 1);
    }
    needy_inst->underloaded = needy_inst->children.size() < m_min;
  }
  if (moved_any) compute_mbr(h);
  return moved_any && needy_inst->children.size() >= m_min;
}

void dr_peer::check_structure(std::size_t h) {
  // Fig. 14: compact underloaded children; dissolve-and-rejoin as a last
  // resort.  Children of an instance at h live at h-1 and their children
  // at h-2, so compaction is meaningful for h >= 2.
  if (h < 2) return;
  auto* ins = find_inst(h);
  if (ins == nullptr) return;

  // Bounded loop: each merge or redistribution strictly reduces the
  // number of underloaded children.
  for (std::size_t guard = 0; guard < overlay_.config().max_children + 2;
       ++guard) {
    peer_id underloaded_child = kNoPeer;
    for (const auto q : ins->children) {
      if (!sees(q)) continue;
      const auto* qi = (q == pid()) ? find_inst(h - 1)
                                    : overlay_.peer(q).find_inst(h - 1);
      if (qi == nullptr) continue;
      if (qi->children.size() < overlay_.config().min_children) {
        underloaded_child = q;
        break;
      }
    }
    if (underloaded_child == kNoPeer) return;
    const auto cand = search_compaction_candidate(h, underloaded_child);
    if (cand != kNoPeer) {
      ++repairs_.compactions;
      overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairCompact, h);
      compact(h, underloaded_child, cand);
    } else if (redistribute(h, underloaded_child)) {
      ++repairs_.redistributions;
      overlay_.trace_emit(obs::trace_kind::repair, pid(), kRepairRedistribute,
                          h);
      // Borrowed children from a rich sibling (the paper's "dispatched to
      // one of p's unsaturated children", in the absorbing direction).
    } else if (underloaded_child == pid()) {
      // This peer's own lower instance anchors its instance chain: it can
      // absorb or borrow but never dissolve.  Nothing fits this round;
      // future joins/leaves will change the balance.
      return;
    } else {
      // No sibling can absorb or donate: dissolve the subtree; its leaves
      // rejoin through the oracle.
      ++repairs_.subtree_dissolutions;
      overlay_.trace_emit(obs::trace_kind::repair, pid(),
                          kRepairSubtreeDissolve, h);
      dr_msg m;
      m.kind = msg_kind::initiate_new_connection;
      m.h = h - 1;
      m.hops_left = 1;
      send_msg(underloaded_child, m);
      ins->remove_child(underloaded_child);
      compute_mbr(h);
    }
    ins = find_inst(h);
    if (ins == nullptr) return;
  }
}

void dr_peer::stabilize_pass() {
  ++overlay_.stab_stats().visited;
  overlay_.trace_emit(obs::trace_kind::stab_begin, pid(), top());
  const auto msgs_before = sim().metrics().messages_sent;
  const auto& r0 = repairs_;
  const auto repairs_before =
      r0.mbr_fixed + r0.own_chain_fixed + r0.rejoins + r0.children_discarded +
      r0.instances_dissolved + r0.cover_promotions + r0.compactions +
      r0.redistributions + r0.subtree_dissolutions;
  const auto& sw = overlay_.config().stabilizers;
  // Snapshot the heights into reusable scratch (modules may erase
  // instances mid-pass; the old per-pass vector allocation is gone).
  heights_scratch_.clear();
  for (const auto& ref : levels_) heights_scratch_.push_back(ref.height);
  // Bottom-up so MBR fixes propagate toward the root within one pass.
  for (const auto h : heights_scratch_) {
    if (!has_instance(h)) continue;  // erased by an earlier module
    if (sw.check_parent) check_parent(h);
    if (!has_instance(h)) continue;
    if (sw.check_children) check_children(h);
    if (!has_instance(h)) continue;
    if (sw.check_mbr) check_mbr(h);
    if (!has_instance(h)) continue;
    if (sw.check_cover) check_cover(h);
    if (!has_instance(h)) continue;
    if (sw.check_structure) check_structure(h);
    if (overlay_.config().fp_reorganization) maybe_reorganize(h);
  }
  // Root probe: lets fragments (including still-detached joiners) find
  // the main structure; a probe landing in our own tree routes back to us
  // and is discarded.
  if (is_root()) {
    const auto contact = overlay_.contact_node(pid());
    if (contact != kNoPeer && contact != pid()) {
      dr_msg m;
      m.kind = msg_kind::join_request;
      m.subject = pid();
      m.h = top();
      m.mbr = inst(top()).mbr;
      m.hops_left = overlay_.config().max_route_hops;
      send_msg(contact, m);
      // Accounted separately so the dirty-mode safety net can tell this
      // steady-state send apart from genuine repair traffic: a stable
      // root's pass always sends its probe, and counting it as "the pass
      // changed something" would re-mark the root forever.
      ++stab_probe_msgs_;
    }
  }
  const auto repairs_after =
      r0.mbr_fixed + r0.own_chain_fixed + r0.rejoins + r0.children_discarded +
      r0.instances_dissolved + r0.cover_promotions + r0.compactions +
      r0.redistributions + r0.subtree_dissolutions;
  overlay_.trace_emit(obs::trace_kind::stab_end, pid(),
                      repairs_after - repairs_before,
                      sim().metrics().messages_sent - msgs_before);
}

// --------------------------------------------- dissemination (§2.3/§3)

bool dr_peer::already_seen(std::uint64_t event_id) {
  for (const auto e : seen_events_) {
    if (e == event_id) return true;
  }
  seen_events_[seen_cursor_] = event_id;
  seen_cursor_ = (seen_cursor_ + 1) % seen_events_.size();
  return false;
}

void dr_peer::deliver_local(const spatial::event& ev, std::size_t hop) {
  overlay_.record_delivery(ev.id, pid(), hop);
}

void dr_peer::multi_publish(const spatial::event* evs, std::size_t n) {
  while (n > dr_batch_msg::kMaxEvents) {
    multi_publish(evs, dr_batch_msg::kMaxEvents);
    evs += dr_batch_msg::kMaxEvents;
    n -= dr_batch_msg::kMaxEvents;
  }
  if (n == 0) return;
  const auto k = top();
  for (std::size_t i = 0; i < n; ++i) {
    already_seen(evs[i].id);
    deliver_local(evs[i], 0);
    record_instance_event(k, evs[i]);
  }
  const auto all = first_n(n);
  fan_out_batch(k, evs, all, 0, kNoPeer);
  if (!is_root()) {
    send_batch(inst(k).parent, msg_kind::event_up, k + 1,
               overlay_.config().max_route_hops, 1, evs, all);
  }
}

void dr_peer::fan_out_batch(std::size_t h, const spatial::event* evs,
                            std::uint64_t live, std::size_t hop,
                            peer_id skip) {
  if (h == 0 || live == 0) return;
  const auto* ins = find_inst(h);
  if (ins == nullptr) return;
  for (const auto q : ins->children) {
    if (q == skip) continue;
    if (q == pid()) {
      // Own-chain descent stays in-process: narrow the mask and recurse.
      const auto* own = find_inst(h - 1);
      if (own == nullptr) continue;
      const auto sub = admitted(own->mbr, evs, live);
      for_each_event(sub, [&](unsigned i) {
        record_instance_event(h - 1, evs[i]);
      });
      fan_out_batch(h - 1, evs, sub, hop, kNoPeer);
      continue;
    }
    if (!sees(q)) continue;
    const auto* qi = overlay_.peer(q).find_inst(h - 1);
    if (qi == nullptr) continue;
    // Split point of the protocol: each child gets the subset its MBR
    // admits, and a child admitting nothing is pruned before any envelope
    // is built.
    const auto sub = admitted(qi->mbr, evs, live);
    if (sub == 0) continue;
    send_batch(q, msg_kind::event_down, h - 1,
               overlay_.config().max_route_hops, hop + 1, evs, sub);
  }
}

std::uint64_t dr_peer::deliver_fresh(const dr_batch_msg& m) {
  // Per-event dedup: a batch merging seen and fresh events delivers and
  // forwards exactly the fresh subset.
  std::uint64_t fresh = 0;
  for (std::uint32_t i = 0; i < m.count; ++i) {
    if (already_seen(m.events[i].id)) continue;
    deliver_local(m.events[i], m.hop);
    fresh |= std::uint64_t{1} << i;
  }
  return fresh;
}

void dr_peer::handle_batch_down(const dr_batch_msg& m) {
  const auto fresh = deliver_fresh(m);
  if (fresh == 0) return;
  // The addressed instance can have been dissolved by a concurrent
  // promotion/compaction; fall back to the current top so the events still
  // reach this peer's (re-homed) subtree — no false negatives from
  // in-flight reconfiguration.
  const std::size_t h = std::min<std::size_t>(m.h, top());
  for_each_event(fresh, [&](unsigned i) {
    record_instance_event(h, m.events[i]);
  });
  fan_out_batch(h, m.events, fresh, m.hop, kNoPeer);
}

void dr_peer::handle_batch_up(peer_id from, const dr_batch_msg& m) {
  const auto fresh = deliver_fresh(m);
  if (fresh == 0) return;
  peer_id from_child = from;
  std::size_t h = std::min<std::size_t>(m.h, top());  // may have dissolved
  while (true) {
    const auto* ins = find_inst(h);
    if (ins == nullptr) return;
    for_each_event(fresh, [&](unsigned i) {
      record_instance_event(h, m.events[i]);
    });
    // "down every sibling subtree encountered on the path to the root".
    fan_out_batch(h, m.events, fresh, m.hop, from_child);
    if (ins->parent == pid()) {
      if (h < top()) {
        from_child = pid();  // continue up this peer's own chain
        ++h;
        continue;
      }
      return;  // reached the root
    }
    if (m.hops_left == 0) return;
    send_batch(ins->parent, msg_kind::event_up, h + 1, m.hops_left - 1,
               m.hop + 1, m.events, fresh);
    return;
  }
}

// ------------------------------------------- distributed range search

void dr_peer::start_search(std::uint64_t query_id, const box& query) {
  // A search behaves like a join route: climb to the root, then prune by
  // MBR intersection on the way down (classic R-tree search, §2.2,
  // distributed).  The searching peer's own filter counts as a hit too.
  if (filter_.intersects(query)) {
    overlay_.record_search_hit(query_id, pid(), 0);
  }
  dr_msg m;
  m.kind = msg_kind::search_up;
  m.subject = pid();
  m.reply_to = pid();
  m.query_id = query_id;
  m.mbr = query;
  m.hops_left = overlay_.config().max_route_hops;
  m.hop = 0;
  if (is_root()) {
    m.h = top();
    handle_search_down(m);  // already at the top: descend locally
  } else {
    m.hop = 1;
    send_msg(inst(top()).parent, m);
  }
}

void dr_peer::handle_search_up(const dr_msg& m) {
  if (m.hops_left == 0) return;
  if (is_root()) {
    dr_msg down = m;
    down.h = top();
    handle_search_down(down);
    return;
  }
  dr_msg fwd = m;
  --fwd.hops_left;
  ++fwd.hop;
  send_msg(inst(top()).parent, fwd);
}

void dr_peer::handle_search_down(const dr_msg& m) {
  // Descend from the addressed instance (falling back to the current top
  // if it dissolved), following every child whose MBR intersects the
  // query.  Local chain hops are free (same process); remote forwards are
  // messages.
  auto& heights = search_scratch_;
  heights.clear();
  heights.push_back(std::min(m.h, top()));
  while (!heights.empty()) {
    const auto h = heights.back();
    heights.pop_back();
    const auto* ins = find_inst(h);
    if (ins == nullptr) continue;
    if (h == 0) {
      if (filter_.intersects(m.mbr)) {
        if (m.reply_to == pid()) {
          overlay_.record_search_hit(m.query_id, pid(), m.hop);
        } else {
          dr_msg hit;
          hit.kind = msg_kind::search_hit;
          hit.subject = pid();
          hit.query_id = m.query_id;
          hit.hop = m.hop + 1;
          hit.hops_left = 1;
          send_msg(m.reply_to, hit);
        }
      }
      continue;
    }
    for (const auto q : ins->children) {
      if (q == pid()) {
        const auto* own = find_inst(h - 1);
        if (own != nullptr && own->mbr.intersects(m.mbr)) {
          heights.push_back(h - 1);
        }
        continue;
      }
      if (!sees(q)) continue;
      const auto* qi = overlay_.peer(q).find_inst(h - 1);
      if (qi == nullptr || !qi->mbr.intersects(m.mbr)) continue;
      dr_msg fwd = m;
      fwd.kind = msg_kind::search_down;
      fwd.h = h - 1;
      ++fwd.hop;
      send_msg(q, fwd);
    }
  }
}

// ------------------------------------ FP-driven reorganization (§3.2)

void dr_peer::record_instance_event(std::size_t h, const spatial::event& ev) {
  if (!overlay_.config().fp_reorganization) return;
  auto* ins = find_inst(h);
  if (ins == nullptr || h == 0) return;
  ++ins->events_seen;
  // FP counters only matter once maybe_reorganize's threshold is met, and
  // that runs inside the pass — schedule one when the budget fills.
  if (ins->events_seen == kReorgMinEvents) overlay_.mark_dirty(pid(), h);
  if (!filter_.contains(ev.value)) ++ins->fp_self;
  for (const auto q : ins->children) {
    if (q == pid() || !sees(q)) continue;
    if (!overlay_.peer(q).filter().contains(ev.value)) {
      ++ins->fp_child_would[q];
    }
  }
}

void dr_peer::maybe_reorganize(std::size_t h) {
  auto* ins = find_inst(h);
  if (ins == nullptr || h == 0) return;
  if (ins->events_seen < kReorgMinEvents) return;
  peer_id best = kNoPeer;
  std::uint64_t best_fp = std::numeric_limits<std::uint64_t>::max();
  for (const auto q : ins->children) {
    if (q == pid() || !sees(q)) continue;
    if (overlay_.peer(q).find_inst(h - 1) == nullptr) continue;
    const auto it = ins->fp_child_would.find(q);
    const std::uint64_t fp = it == ins->fp_child_would.end() ? 0 : it->second;
    if (fp < best_fp || (fp == best_fp && q < best)) {
      best_fp = fp;
      best = q;
    }
  }
  const auto fp_self = ins->fp_self;
  ins->fp_self = 0;
  ins->events_seen = 0;
  ins->fp_child_would.clear();
  if (best != kNoPeer && fp_self > best_fp) promote_child(h, best);
}

}  // namespace drt::overlay
