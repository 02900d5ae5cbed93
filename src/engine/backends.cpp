#include "engine/backends.h"

#include <algorithm>

#include "baselines/containment_tree.h"
#include "baselines/dimension_forest.h"
#include "baselines/flooding.h"
#include "baselines/zcurve_dht.h"
#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "drtree/messages.h"
#include "engine/scenario.h"
#include "util/expect.h"

namespace drt::engine {

overlay_backend_config configured_for(const scenario& sc,
                                      overlay_backend_config base) {
  if (sc.net.has_value()) base.net.model = *sc.net;
  return base;
}

// ------------------------------------------------------- drtree_backend

drtree_backend::drtree_backend(overlay_backend_config config)
    : owned_(std::make_unique<overlay::dr_overlay>(config.dr, config.net)),
      overlay_(owned_.get()) {}

capability_mask drtree_backend::capabilities() const {
  // Partition/degrade are advertised iff the sim's net model has a
  // dynamic fault layer — capabilities are honest, never aspirational.
  capability_mask m = cap_unsubscribe | cap_crash | cap_restart |
                      cap_corruption | cap_stabilize;
  if (overlay_->sim().dynamic_net() != nullptr) {
    m |= cap_partition | cap_degrade;
  }
  return m;
}

bool drtree_backend::partition(const std::vector<sub_id>& side_b) {
  const std::vector<spatial::peer_id> peers(side_b.begin(), side_b.end());
  return overlay_->partition(peers);
}

bool drtree_backend::degrade_links(double latency_factor, double extra_loss,
                                   double ramp_rounds) {
  return overlay_->degrade_links(
      latency_factor, extra_loss,
      ramp_rounds * overlay_->config().stabilize_period);
}

sub_id drtree_backend::subscribe(const spatial::box& filter) {
  return overlay_->add_peer_and_settle(filter);
}

bool drtree_backend::unsubscribe(sub_id s) {
  const auto p = static_cast<spatial::peer_id>(s);
  if (!overlay_->alive(p)) return false;
  overlay_->controlled_leave(p);
  overlay_->settle();
  return true;
}

bool drtree_backend::crash(sub_id s) {
  const auto p = static_cast<spatial::peer_id>(s);
  if (!overlay_->alive(p)) return false;
  overlay_->crash(p);
  return true;
}

bool drtree_backend::restart(sub_id s) {
  const auto p = static_cast<spatial::peer_id>(s);
  if (overlay_->alive(p)) return false;
  overlay_->restart(p);
  return true;
}

std::size_t drtree_backend::corrupt(double rate, std::uint64_t seed) {
  overlay::corruptor vandal(*overlay_, seed);
  return vandal.corrupt(overlay::uniform_corruption(rate));
}

bool drtree_backend::alive(sub_id s) const {
  return overlay_->alive(static_cast<spatial::peer_id>(s));
}

std::vector<sub_id> drtree_backend::active() const {
  std::vector<sub_id> out;
  out.reserve(overlay_->live_count());
  overlay_->for_each_live([&out](spatial::peer_id p) { out.push_back(p); });
  return out;
}

sub_id drtree_backend::root() const {
  const auto r = overlay_->current_root();
  return r == spatial::kNoPeer ? kNoSub : static_cast<sub_id>(r);
}

delivery_report drtree_backend::publish(sub_id publisher,
                                        const spatial::pt& value) {
  // A batch of one, through broker_backend's override on the façade.
  return publish_batch(publisher, &value, 1);
}

delivery_report drtree_backend::publish_batch(sub_id publisher,
                                              const spatial::pt* values,
                                              std::size_t n) {
  const auto results = overlay_->multi_publish_and_drain(
      static_cast<spatial::peer_id>(publisher), values, n);
  delivery_report d;
  for (const auto& r : results) {
    d.interested += r.interested;
    d.delivered += r.delivered;
    d.false_positives += r.false_positives;
    d.false_negatives += r.false_negatives;
    d.messages += r.messages;
    d.max_hops = std::max(d.max_hops, r.max_hops);
  }
  return d;
}

void drtree_backend::step_round() {
  overlay_->advance(overlay_->config().stabilize_period);
  overlay_->settle();
}

bool drtree_backend::legal() const {
  return overlay::checker(*overlay_).check().legal();
}

backend_shape drtree_backend::shape() const {
  // The checker's structural view, so shape rows compare directly with
  // the baselines'.
  const auto report = overlay::checker(*overlay_).check();
  backend_shape s;
  s.population = report.live_peers;
  s.height = report.height;
  s.max_degree = report.max_interior_children;
  s.avg_degree = report.avg_interior_children;
  s.routing_state = report.memory_links;
  return s;
}

backend_counters drtree_backend::counters() const {
  backend_counters c;
  c.messages = overlay_->sim().metrics().messages_sent;
  c.stabilize_visited = overlay_->stab_stats().visited;
  c.stabilize_skipped = overlay_->stab_stats().skipped;
  return c;
}

std::string drtree_backend::dump_flight(const std::string& reason) {
  const auto* t = overlay_->trace();
  if (t == nullptr) return {};
  return obs::write_flight_dump(reason, t->snapshot(), t->size(), {});
}

// ----------------------------------------------- sharded_drtree_backend

sharded_drtree_backend::sharded_drtree_backend(overlay_backend_config config,
                                               std::size_t shards,
                                               bool parallel)
    : kernel_([&] {
        sim::kernel_config kc;
        kc.shards = shards == 0 ? 1 : shards;
        kc.window = config.dr.stabilize_period;
        kc.parallel = parallel;
        return kc;
      }()) {
  const auto n = kernel_.shards();
  overlays_.reserve(n);
  local_to_global_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto scfg = config.net;
    // Distinct per-shard RNG streams; shard 0 keeps the base seed so a
    // one-shard run consumes the stream exactly like the unsharded
    // backend (the digest-equivalence contract).
    scfg.seed = config.net.seed + i * 0x9e3779b97f4a7c15ull;
    overlays_.push_back(
        std::make_unique<overlay::dr_overlay>(config.dr, scfg));
    if (auto* t = overlays_.back()->trace()) {
      t->set_shard(static_cast<std::uint16_t>(i));
    }
    kernel_.attach(i, overlays_.back()->sim());
  }
}

const sharded_drtree_backend::slot& sharded_drtree_backend::at(
    sub_id s) const {
  DRT_EXPECT(s < subs_.size());
  return subs_[s];
}

sub_id sharded_drtree_backend::subscribe(const spatial::box& filter) {
  const auto shard = next_shard_;
  next_shard_ = (next_shard_ + 1) % overlays_.size();
  const auto local = overlays_[shard]->add_peer_and_settle(filter);
  const auto s = static_cast<sub_id>(subs_.size());
  subs_.push_back({shard, local});
  DRT_EXPECT(local_to_global_[shard].size() == local);
  local_to_global_[shard].push_back(s);
  return s;
}

bool sharded_drtree_backend::unsubscribe(sub_id s) {
  const auto& sl = at(s);
  auto& ov = *overlays_[sl.shard];
  if (!ov.alive(sl.local)) return false;
  ov.controlled_leave(sl.local);
  ov.settle();
  return true;
}

bool sharded_drtree_backend::crash(sub_id s) {
  const auto& sl = at(s);
  auto& ov = *overlays_[sl.shard];
  if (!ov.alive(sl.local)) return false;
  ov.crash(sl.local);
  return true;
}

bool sharded_drtree_backend::restart(sub_id s) {
  const auto& sl = at(s);
  auto& ov = *overlays_[sl.shard];
  if (ov.alive(sl.local)) return false;
  ov.restart(sl.local);
  return true;
}

std::size_t sharded_drtree_backend::corrupt(double rate, std::uint64_t seed) {
  std::size_t mutations = 0;
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    overlay::corruptor vandal(*overlays_[i], seed + i);
    mutations += vandal.corrupt(overlay::uniform_corruption(rate));
  }
  return mutations;
}

bool sharded_drtree_backend::alive(sub_id s) const {
  if (s >= subs_.size()) return false;
  const auto& sl = subs_[s];
  return overlays_[sl.shard]->alive(sl.local);
}

std::vector<sub_id> sharded_drtree_backend::active() const {
  std::vector<sub_id> out;
  out.reserve(subs_.size());
  for (sub_id s = 0; s < subs_.size(); ++s) {
    if (alive(s)) out.push_back(s);
  }
  return out;
}

std::size_t sharded_drtree_backend::population() const {
  std::size_t n = 0;
  for (const auto& ov : overlays_) n += ov->live_count();
  return n;
}

sub_id sharded_drtree_backend::root() const {
  // The forest has no global root; expose shard 0's (the one an
  // unsharded run would have) so "kill the root" scenarios stay
  // meaningful.
  const auto r = overlays_[0]->current_root();
  if (r == spatial::kNoPeer) return kNoSub;
  return local_to_global_[0][r];
}

delivery_report sharded_drtree_backend::publish(sub_id publisher,
                                                const spatial::pt& value) {
  return publish_batch(publisher, &value, 1);
}

delivery_report sharded_drtree_backend::publish_batch(
    sub_id publisher, const spatial::pt* values, std::size_t n) {
  if (n == 0) return {};
  const auto& sl = at(publisher);
  std::vector<std::uint64_t> ids(n);
  for (auto& id : ids) id = next_event_id_++;
  std::vector<spatial::pt> vals(values, values + n);
  std::vector<std::uint64_t> before(overlays_.size(), 0);
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    before[i] = overlays_[i]->sim().metrics().messages_sent;
  }
  overlays_[sl.shard]->multi_publish_begin(sl.local, ids.data(), vals.data(),
                                           n);
  for (std::size_t d = 0; d < overlays_.size(); ++d) {
    if (d == sl.shard) continue;
    // One cross-shard injection per shard carries the whole batch — the
    // sharded analogue of the batch envelope's single descent.
    kernel_.post(sl.shard, d, overlay::dr_batch_msg::bytes_for(n),
                 [this, d, ids, vals](sim::simulator&) {
                   overlays_[d]->inject_multi_publish(ids.data(), vals.data(),
                                                      ids.size());
                 });
  }
  kernel_.settle();

  delivery_report rep;
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    const auto after = overlays_[i]->sim().metrics().messages_sent;
    rep.messages += after - before[i];
    for (std::size_t e = 0; e < n; ++e) {
      // `after` as the baseline zeroes the per-event message delta; the
      // shard's batch total was added once above.
      const auto r = overlays_[i]->publish_finish(ids[e], vals[e], after);
      rep.interested += r.interested;
      rep.delivered += r.delivered;
      rep.false_positives += r.false_positives;
      rep.false_negatives += r.false_negatives;
      rep.max_hops = std::max(rep.max_hops, r.max_hops);
    }
  }
  if (overlays_.size() > 1) {
    rep.messages += overlays_.size() - 1;  // the cross-shard injections
  }
  return rep;
}

void sharded_drtree_backend::step_round() {
  kernel_.advance(overlays_[0]->config().stabilize_period);
  kernel_.settle();
}

bool sharded_drtree_backend::legal() const {
  // A forest is legitimate when every shard's tree is.
  for (const auto& ov : overlays_) {
    if (!overlay::checker(*ov).check().legal()) return false;
  }
  return true;
}

backend_shape sharded_drtree_backend::shape() const {
  backend_shape s;
  double degree_sum = 0.0;
  std::size_t degree_nodes = 0;
  for (const auto& ov : overlays_) {
    const auto report = overlay::checker(*ov).check();
    s.population += report.live_peers;
    s.height = std::max(s.height, report.height);
    s.max_degree = std::max(s.max_degree, report.max_interior_children);
    s.routing_state += report.memory_links;
    // Weighted by interior-instance count (total instances minus the one
    // leaf per live peer) so the forest average is honest.
    const std::size_t interior =
        report.instances > report.live_peers
            ? report.instances - report.live_peers
            : 0;
    degree_sum += report.avg_interior_children * interior;
    degree_nodes += interior;
  }
  s.avg_degree = degree_nodes == 0 ? 0.0 : degree_sum / degree_nodes;
  return s;
}

backend_counters sharded_drtree_backend::counters() const {
  backend_counters c;
  for (const auto& ov : overlays_) {
    c.messages += ov->sim().metrics().messages_sent;
    c.stabilize_visited += ov->stab_stats().visited;
    c.stabilize_skipped += ov->stab_stats().skipped;
  }
  c.messages += kernel_.metrics().cross_messages;
  return c;
}

std::string sharded_drtree_backend::dump_flight(const std::string& reason) {
  std::vector<const obs::trace_ring*> rings;
  for (const auto& ov : overlays_) {
    if (ov->trace() != nullptr) rings.push_back(ov->trace());
  }
  if (rings.empty()) return {};
  const auto merged = obs::merge_traces(rings);
  return obs::write_flight_dump(reason, merged, merged.size(), {});
}

std::size_t sharded_drtree_backend::dirty_pending(std::size_t shard) const {
  DRT_EXPECT(shard < overlays_.size());
  return overlays_[shard]->dirty_pending();
}

overlay::arena_stats sharded_drtree_backend::arena_stats() const {
  overlay::arena_stats total;
  for (const auto& ov : overlays_) {
    const auto st = ov->arena().stats();
    total.slots += st.slots;
    total.live += st.live;
    total.slab_bytes += st.slab_bytes;
    total.heap_bytes += st.heap_bytes;
  }
  return total;
}

// ------------------------------------------------------- broker_backend

broker_backend::broker_backend(overlay_backend_config config)
    : broker_backend(std::make_unique<pubsub::broker>(
          pubsub::broker_config{config.dr, config.net})) {}

broker_backend::broker_backend(std::unique_ptr<pubsub::broker> b)
    : drtree_backend(b->raw_overlay(), "broker"), broker_(std::move(b)) {}

sub_id broker_backend::subscribe(const spatial::box& filter) {
  const auto client = broker_->add_client();
  const auto handle = broker_->subscribe(client, filter);
  const auto s = static_cast<sub_id>(handle.peer);
  handles_.emplace(s, handle);
  return s;
}

bool broker_backend::unsubscribe(sub_id s) {
  const auto it = handles_.find(s);
  if (it == handles_.end()) return false;
  // One client per subscription: retire the whole client, or clients_
  // would accumulate forever under churn.
  const bool ok = broker_->remove_client(it->second.client);
  handles_.erase(it);
  return ok;
}

delivery_report broker_backend::publish_batch(sub_id publisher,
                                              const spatial::pt* values,
                                              std::size_t n) {
  const auto it = handles_.find(publisher);
  DRT_EXPECT(it != handles_.end());
  const auto outs = broker_->publish_batch(it->second.client, values, n);
  // One client per subscription, so client-level accounting *is*
  // subscription-level accounting.
  delivery_report d;
  for (const auto& out : outs) {
    d.interested += out.matching_clients;
    d.delivered += out.notified.size();
    d.false_positives += out.client_false_positives;
    d.false_negatives += out.client_false_negatives;
    d.messages += out.messages;
    d.max_hops = std::max(d.max_hops, out.max_hops);
  }
  return d;
}

// ----------------------------------------------------- baseline_backend

baseline_backend::baseline_backend(
    std::unique_ptr<baselines::pubsub_baseline> impl)
    : impl_(std::move(impl)) {
  DRT_EXPECT(impl_ != nullptr);
  rebuild();  // defined empty shape from the start (baseline.h contract)
}

void baseline_backend::rebuild() {
  impl_->build(filters_);
  ++rebuilds_;
  messages_ += impl_->build_messages();
  // Honest-rebuild semantics extend to the ground-truth matcher: it is
  // reconstructed from the surviving subscription set.
  scorer_.rebuild(filters_);
}

std::size_t baseline_backend::index_of(sub_id s) const {
  const auto it = std::find(ids_.begin(), ids_.end(), s);
  return it == ids_.end() ? npos
                          : static_cast<std::size_t>(it - ids_.begin());
}

sub_id baseline_backend::subscribe(const spatial::box& filter) {
  const auto s = next_id_++;
  ids_.push_back(s);
  filters_.push_back(filter);
  rebuild();
  return s;
}

bool baseline_backend::unsubscribe(sub_id s) {
  const auto i = index_of(s);
  if (i == npos) return false;
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(i));
  filters_.erase(filters_.begin() + static_cast<std::ptrdiff_t>(i));
  rebuild();
  return true;
}

bool baseline_backend::alive(sub_id s) const { return index_of(s) != npos; }

delivery_report baseline_backend::publish(sub_id publisher,
                                          const spatial::pt& value) {
  const auto idx = index_of(publisher);
  DRT_EXPECT(idx != npos);
  const auto diss = impl_->publish(idx, value);
  messages_ += diss.messages;

  delivery_report d;
  d.messages = diss.messages;
  d.max_hops = diss.max_hops;
  const auto s = scorer_.score(value, diss.receivers);
  d.interested = s.interested;
  d.delivered = s.delivered;
  d.false_positives = s.false_positives;
  d.false_negatives = s.false_negatives;
  return d;
}

backend_shape baseline_backend::shape() const {
  const auto s = impl_->shape();
  backend_shape out;
  out.population = s.population;
  out.height = s.height;
  out.max_degree = s.max_degree;
  out.avg_degree = s.avg_degree;
  out.routing_state = s.routing_state;
  return out;
}

// --------------------------------------------------------------- factory

std::vector<std::unique_ptr<backend>> make_all_backends(
    const overlay_backend_config& config) {
  std::vector<std::unique_ptr<backend>> out;
  out.push_back(std::make_unique<drtree_backend>(config));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::containment_tree>()));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::dimension_forest>()));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::flooding>(4, 113)));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::zcurve_dht>(config.dr.workspace, 5, 127)));
  return out;
}

std::unique_ptr<backend> make_scenario_backend(const scenario& sc,
                                               overlay_backend_config base) {
  const auto cfg = configured_for(sc, base);
  if (sc.shards <= 1) return std::make_unique<drtree_backend>(cfg);
  return std::make_unique<sharded_drtree_backend>(cfg, sc.shards);
}

}  // namespace drt::engine
