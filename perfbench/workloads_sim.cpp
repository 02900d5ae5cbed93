// The two in-process workloads, driven through engine::backend on the
// deterministic simulator.
//
//  scale_churn     sharded DR-tree (4 shards, sequential kernel), 60,000
//                  small clustered filters; crash 1%, repair, restart half
//                  the victims, repair, 5 quiescent rounds, 2,048 scalar
//                  uniform publishes.  Join and the CHECK_* repair
//                  modules do most of the work.
//  publish_sparse  plain DR-tree, 10,000 small clustered filters, no
//                  churn; a fixed stream of uniform events, half scalar
//                  publishes and half batches of 16, interleaved.  Routing,
//                  the message bus and the ground-truth R-tree do the work.
//
// Both run whole episodes (fresh backend, setup, timed phase), cycling
// over a few input sets drawn from the seed, until the time budget is
// spent.  Episodes of one input set must agree on every simulated count —
// the same-seed determinism check — and setup time is the median over
// episodes.
#include <algorithm>

#include "bench.h"
#include "engine/backends.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace engine = drt::engine;
namespace workload = drt::workload;
using drt::spatial::box;
using drt::spatial::pt;

constexpr std::size_t kMinEpisodes = 3;
constexpr std::size_t kRoundBudget = 200;  ///< repair rounds before failing
constexpr std::size_t kQuiescentRounds = 5;

// ------------------------------------------------- overlay-wide counters

template <typename Fn>
void for_each_overlay(engine::drtree_backend& be, Fn&& fn) {
  fn(be.overlay());
}
template <typename Fn>
void for_each_overlay(engine::sharded_drtree_backend& be, Fn&& fn) {
  for (std::size_t i = 0; i < be.shards(); ++i) fn(be.overlay(i));
}

/// Simulator counters summed over every overlay of a backend.
struct sim_totals {
  std::uint64_t steps = 0;
  std::uint64_t timers = 0;
  std::uint64_t to_dead = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
};
template <typename Backend>
sim_totals totals(Backend& be) {
  sim_totals t;
  for_each_overlay(be, [&](drt::overlay::dr_overlay& ov) {
    const auto& m = ov.sim().metrics();
    t.steps += m.handler_steps;
    t.timers += m.timers_fired;
    t.to_dead += m.messages_to_dead;
    t.sent += m.messages_sent;
    t.delivered += m.messages_delivered;
  });
  return t;
}

/// Stabilizer repairs grouped by CHECK_* module (paper Figs. 10–14).
struct module_repairs {
  std::uint64_t mbr = 0, parent = 0, children = 0, cover = 0, structure = 0;
  std::uint64_t sum() const {
    return mbr + parent + children + cover + structure;
  }
};
template <typename Backend>
module_repairs repairs(Backend& be) {
  module_repairs r;
  for_each_overlay(be, [&](drt::overlay::dr_overlay& ov) {
    const auto s = ov.total_repairs();
    r.mbr += s.mbr_fixed;
    r.parent += s.own_chain_fixed + s.rejoins;
    r.children += s.children_discarded + s.instances_dissolved;
    r.cover += s.cover_promotions;
    r.structure +=
        s.compactions + s.redistributions + s.subtree_dissolutions;
  });
  return r;
}

template <typename Backend>
std::size_t arena_bytes(Backend& be) {
  std::size_t bytes = 0;
  for_each_overlay(be, [&](drt::overlay::dr_overlay& ov) {
    bytes += ov.arena().stats().total_bytes();
  });
  return bytes;
}

/// Ground-truth R-tree (dr_overlay::matching_live_peers, over every
/// overlay) on the published points, timed per point.  It is const and
/// draws no RNG, so it cannot perturb the simulated counts.
template <typename Backend>
void truth_queries(Backend& be, const std::vector<pt>& points, span_log* log,
                   std::map<std::string, double>& layer) {
  std::vector<drt::spatial::peer_id> scratch;
  std::uint64_t matches = 0;
  const auto t0 = clock_type::now();
  {
    scoped_span phase(log, "truth", "bench");
    for (std::size_t i = 0; i < points.size(); ++i) {
      scoped_span sp(log, "dr_overlay::matching_live_peers", "rtree", i);
      for_each_overlay(be, [&](drt::overlay::dr_overlay& ov) {
        ov.matching_live_peers(points[i], scratch);
        matches += scratch.size();
      });
    }
  }
  const auto n = static_cast<double>(points.size());
  layer["rtree.truth_query_us"] = us_between(t0, clock_type::now()) / n;
  layer["rtree.matches_per_event"] = static_cast<double>(matches) / n;
}

/// step_round() on a legal overlay, timed.
template <typename Backend>
void quiescent_rounds(Backend& be, span_log* log, std::vector<double>& ms) {
  scoped_span phase(log, "quiescent", "bench");
  for (std::size_t i = 0; i < kQuiescentRounds; ++i) {
    const auto t0 = clock_type::now();
    scoped_span sp(log, "backend::step_round", "drtree.stabilize", i);
    be.step_round();
    ms.push_back(us_between(t0, clock_type::now()) / 1000.0);
  }
}

// ------------------------------------------------------- episode records

/// Delivery accounting summed over a publish phase (all simulated).
struct delivery_totals {
  std::uint64_t events = 0, interested = 0, delivered = 0, fp = 0, fn = 0,
                messages = 0, hops = 0;
  void add(const engine::delivery_report& r, std::size_t n_events) {
    events += n_events;
    interested += r.interested;
    delivered += r.delivered;
    fp += r.false_positives;
    fn += r.false_negatives;
    messages += r.messages;
    hops += r.max_hops;
  }
};

/// What one episode measured.  `counts` holds only simulated values;
/// episodes of one run must agree on all of them.
struct episode {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double publish_s = 0.0;
  double repair_s = 0.0;
  std::vector<double> join_us;
  std::vector<double> publish_us;  ///< one sample per publish call
  std::vector<double> hops;        ///< max_hops of scalar publishes
  delivery_totals d;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> layer;  ///< counter-based layer metrics
  std::size_t population = 0;
};

/// One timed legal() call (the checker; never part of repair time).
template <typename Backend>
bool check_legal(Backend& be, span_log* log, std::vector<double>& ms) {
  const auto t0 = clock_type::now();
  scoped_span sp(log, "backend::legal", "drtree.checker");
  const bool ok = be.legal();
  ms.push_back(us_between(t0, clock_type::now()) / 1000.0);
  return ok;
}

/// The set-up every in-process workload starts from: subscribe every
/// filter, timing each call, then step_round() until legal() — with the
/// stretched stabilize cadence a freshly populated overlay is not yet
/// legitimate, and a publication on it may miss interested peers.
/// Fills the setup/join fields and returns the ids in filter order.
template <typename Backend>
std::vector<engine::sub_id> populate(Backend& be,
                                     const std::vector<box>& filters,
                                     span_log* log, episode& ep,
                                     clock_type::time_point t_construct) {
  std::vector<engine::sub_id> ids;
  ids.reserve(filters.size());
  ep.join_us.reserve(filters.size());
  const auto before = totals(be);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const auto t0 = clock_type::now();
    engine::sub_id s;
    {
      scoped_span sp(log, "backend::subscribe", "drtree.join", i);
      s = be.subscribe(filters[i]);
    }
    ep.join_us.push_back(us_between(t0, clock_type::now()));
    ++ep.attempted;
    if (s == engine::kNoSub) ++ep.failed;
    ids.push_back(s);
  }
  const auto after = totals(be);
  const auto n = static_cast<double>(filters.size());
  ep.counts["populate.steps"] = after.steps - before.steps;
  ep.counts["populate.timers"] = after.timers - before.timers;
  ep.layer["sim.steps_per_join"] =
      static_cast<double>(after.steps - before.steps) / n;
  ep.layer["sim.timers_per_join"] =
      static_cast<double>(after.timers - before.timers) / n;
  ep.population = be.population();

  std::vector<double> checker_ms;
  std::size_t rounds = 0;
  bool legal = check_legal(be, log, checker_ms);
  while (!legal && rounds < kRoundBudget) {
    {
      scoped_span sp(log, "backend::step_round", "drtree.stabilize", rounds);
      be.step_round();
    }
    ++rounds;
    legal = check_legal(be, log, checker_ms);
  }
  ep.counts["converge.rounds"] = rounds;
  ++ep.attempted;
  if (!legal) {
    ++ep.failed;
    ep.failures.push_back("populated overlay not legal after " +
                          std::to_string(kRoundBudget) + " rounds");
  }
  ep.setup_s = seconds_between(t_construct, clock_type::now());
  return ids;
}

// ============================================================ scale_churn

struct scale_inputs {
  std::vector<box> filters;
  std::vector<engine::sub_id> victims;     ///< 1% of peers, distinct
  std::vector<engine::sub_id> publishers;  ///< candidates, skip the dead
  std::vector<pt> events;
};

constexpr std::size_t kScalePeers = 60000;
constexpr std::size_t kScaleShards = 4;
constexpr std::size_t kScalePublishes = 2048;
constexpr std::size_t kScaleSets = 3;  ///< one input set per episode

scale_inputs make_scale_inputs(std::uint64_t seed) {
  scale_inputs in;
  drt::util::rng rng(seed);
  workload::subscription_params sp;
  sp.min_side_frac = 0.001;
  sp.max_side_frac = 0.01;
  in.filters = workload::make_subscriptions(
      workload::subscription_family::clustered, kScalePeers, rng, sp);
  // Subscriptions get global ids 0..N-1 in arrival order.
  std::vector<engine::sub_id> ids(kScalePeers);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  rng.shuffle(ids);
  in.victims.assign(ids.begin(), ids.begin() + kScalePeers / 100);
  for (std::size_t i = 0; i < 2 * kScalePublishes; ++i) {
    in.publishers.push_back(rng.index(kScalePeers));
  }
  for (std::size_t i = 0; i < kScalePublishes; ++i) {
    in.events.push_back(workload::make_event_point(
        workload::event_family::uniform, rng, sp.workspace));
  }
  return in;
}

engine::overlay_backend_config scale_config() {
  // bench_million_peer's configuration: small duplicate-suppression
  // rings and a stretched stabilize cadence, so repair is driven by the
  // explicit step_round() calls.
  engine::overlay_backend_config cfg;
  cfg.dr.seen_ring = 64;
  cfg.dr.stabilize_period = 5000.0;
  cfg.net.seed = 2007;
  return cfg;
}

/// step_round() until legal(), within the round budget.
void repair_to_legal(engine::sharded_drtree_backend& be, span_log* log,
                     const char* label, episode& ep,
                     std::vector<double>& round_ms,
                     std::vector<double>& checker_ms) {
  scoped_span phase(log, label, "bench");
  const auto before = totals(be);
  std::size_t rounds = 0;
  bool legal = check_legal(be, log, checker_ms);
  while (!legal && rounds < kRoundBudget) {
    const auto t0 = clock_type::now();
    {
      scoped_span sp(log, "backend::step_round", "drtree.stabilize", rounds);
      be.step_round();
    }
    const double s = seconds_between(t0, clock_type::now());
    ep.repair_s += s;
    round_ms.push_back(s * 1000.0);
    ++rounds;
    legal = check_legal(be, log, checker_ms);
  }
  const auto after = totals(be);
  ep.counts[std::string(label) + ".rounds"] = rounds;
  ep.counts["repair.to_dead"] += after.to_dead - before.to_dead;
  ep.counts["repair.rounds"] += rounds;
  ++ep.attempted;
  if (!legal) {
    ++ep.failed;
    ep.failures.push_back(std::string(label) + ": not legal after " +
                          std::to_string(kRoundBudget) + " rounds");
  }
}

episode scale_episode(const scale_inputs& in, span_log* log) {
  episode ep;
  const auto t_start = clock_type::now();
  std::vector<double> round_ms, quiescent_ms, checker_ms;

  engine::sharded_drtree_backend be(scale_config(), kScaleShards,
                                    /*parallel=*/false);
  {
    scoped_span phase(log, "populate", "bench");
    populate(be, in.filters, log, ep, t_start);
  }
  const auto k0 = be.kernel().metrics();
  const auto c0 = be.counters();
  const auto r0 = repairs(be);

  for (const auto v : in.victims) {
    ++ep.attempted;
    if (!be.crash(v)) ++ep.failed;
  }
  repair_to_legal(be, log, "repair.crash", ep, round_ms, checker_ms);
  for (std::size_t i = 0; i < in.victims.size() / 2; ++i) {
    ++ep.attempted;
    if (!be.restart(in.victims[i])) ++ep.failed;
  }
  repair_to_legal(be, log, "repair.restart", ep, round_ms, checker_ms);
  const auto c1 = be.counters();
  const auto r1 = repairs(be);
  const auto k1 = be.kernel().metrics();
  quiescent_rounds(be, log, quiescent_ms);

  // Publish phase: scalar uniform events from random live peers.
  const auto s0 = totals(be);
  const auto k2 = be.kernel().metrics();
  std::size_t cand = 0;
  const auto t_pub = clock_type::now();
  {
    scoped_span phase(log, "publish", "bench");
    for (std::size_t i = 0; i < in.events.size(); ++i) {
      while (!be.alive(in.publishers[cand % in.publishers.size()])) ++cand;
      const auto pub = in.publishers[cand++ % in.publishers.size()];
      const auto t0 = clock_type::now();
      engine::delivery_report r;
      {
        scoped_span sp(log, "backend::publish", "drtree.route", i);
        r = be.publish(pub, in.events[i]);
      }
      ep.publish_us.push_back(us_between(t0, clock_type::now()));
      ep.hops.push_back(static_cast<double>(r.max_hops));
      ep.d.add(r, 1);
      ++ep.attempted;
    }
  }
  ep.publish_s = seconds_between(t_pub, clock_type::now());
  const auto s1 = totals(be);
  const auto k3 = be.kernel().metrics();
  const bool legal_end = check_legal(be, log, checker_ms);
  ep.wall_s = seconds_between(t_start, clock_type::now());
  if (!legal_end) ep.failures.push_back("overlay not legal after publishes");

  const auto events = static_cast<double>(in.events.size());
  ep.counts["publish.steps"] = s1.steps - s0.steps;
  ep.counts["publish.timers"] = s1.timers - s0.timers;
  ep.counts["kernel.cross_msgs"] = k3.cross_messages - k2.cross_messages;
  ep.counts["repair.visited"] = c1.stabilize_visited - c0.stabilize_visited;
  ep.counts["repair.skipped"] = c1.stabilize_skipped - c0.stabilize_skipped;
  ep.counts["repair.modules"] = r1.sum() - r0.sum();

  // Counter-based layer metrics (simulated; cheap, so every episode).
  auto& L = ep.layer;
  const double rounds = static_cast<double>(ep.counts["repair.rounds"]);
  const double visited = static_cast<double>(ep.counts["repair.visited"]);
  L["drtree.round_ms_p50"] = quantile(round_ms, 0.5);
  L["drtree.round_ms_p99"] = quantile(round_ms, 0.99);
  L["drtree.quiescent_round_ms"] = median(quiescent_ms);
  L["drtree.checker_ms"] = median(checker_ms);
  L["drtree.passes_visited_per_round"] = rounds > 0 ? visited / rounds : 0;
  L["drtree.passes_skipped_per_round"] =
      rounds > 0 ? static_cast<double>(ep.counts["repair.skipped"]) / rounds
                 : 0;
  L["drtree.repair.mbr"] = static_cast<double>(r1.mbr - r0.mbr);
  L["drtree.repair.parent"] = static_cast<double>(r1.parent - r0.parent);
  L["drtree.repair.children"] =
      static_cast<double>(r1.children - r0.children);
  L["drtree.repair.cover"] = static_cast<double>(r1.cover - r0.cover);
  L["drtree.repair.structure"] =
      static_cast<double>(r1.structure - r0.structure);
  L["drtree.useful_pass_ratio"] =
      visited > 0 ? static_cast<double>(r1.sum() - r0.sum()) / visited : 0;
  L["drtree.repair_rounds"] = rounds;
  L["drtree.repair_s"] = ep.repair_s;
  L["sim.steps_per_event"] = static_cast<double>(s1.steps - s0.steps) / events;
  L["sim.timers_per_event"] =
      static_cast<double>(s1.timers - s0.timers) / events;
  L["net.delivered_per_sent"] =
      static_cast<double>(s1.delivered - s0.delivered) /
      static_cast<double>(s1.sent - s0.sent);
  L["sim.kernel.cross_msgs_per_event"] =
      static_cast<double>(k3.cross_messages - k2.cross_messages) / events;
  const double repair_ops = static_cast<double>(in.victims.size() +
                                                in.victims.size() / 2);
  L["sim.kernel.windows_per_op"] =
      static_cast<double>(k1.windows - k0.windows) / repair_ops;
  const double shard_windows =
      static_cast<double>(k1.windows - k0.windows) * kScaleShards;
  L["sim.kernel.idle_window_ratio"] =
      shard_windows > 0
          ? static_cast<double>(k1.shard_windows_idle - k0.shard_windows_idle) /
                shard_windows
          : 0;
  L["net.to_dead"] = static_cast<double>(ep.counts["repair.to_dead"]);
  L["drtree.arena_bytes_per_peer"] =
      static_cast<double>(arena_bytes(be)) /
      static_cast<double>(be.population());
  const auto s_end = totals(be);
  L["sim.steps_per_host_s"] =
      static_cast<double>(s_end.steps) / ep.wall_s;

  truth_queries(be, in.events, log, L);
  return ep;
}

// ========================================================= publish_sparse

constexpr std::size_t kSparsePeers = 10000;
constexpr std::size_t kSparseEvents = 16384;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kSparseSets = 8;

/// A publish stream over a plain drtree_backend: publish_sparse, and
/// the in-process twin of drtd_mixed.
struct sparse_inputs {
  engine::overlay_backend_config cfg;
  std::vector<box> filters;
  std::vector<engine::sub_id> publishers;  ///< one per publish call
  std::vector<pt> events;
  /// Interleave kBatch scalar calls with one batch call of kBatch
  /// events; false publishes every event as a scalar call.
  bool batched = true;
};

sparse_inputs make_sparse_inputs(std::uint64_t seed) {
  sparse_inputs in;
  drt::util::rng rng(seed);
  workload::subscription_params sp;
  sp.min_side_frac = 0.001;
  sp.max_side_frac = 0.01;
  in.filters = workload::make_subscriptions(
      workload::subscription_family::clustered, kSparsePeers, rng, sp);
  for (std::size_t i = 0; i < kSparseEvents; ++i) {
    in.events.push_back(workload::make_event_point(
        workload::event_family::uniform, rng, sp.workspace));
  }
  // Blocks of 2*kBatch events: kBatch scalar calls, then one batch call.
  const std::size_t calls = kSparseEvents / (2 * kBatch) * (kBatch + 1);
  for (std::size_t i = 0; i < calls; ++i) {
    in.publishers.push_back(rng.index(kSparsePeers));
  }
  // bench_publish_throughput's 10k-peer configuration.
  in.cfg.dr.seen_ring = 64;
  in.cfg.dr.stabilize_period = 5000.0;
  in.cfg.net.seed = 2007;
  return in;
}

episode sparse_episode(const sparse_inputs& in, span_log* log) {
  episode ep;
  const auto t_start = clock_type::now();
  std::vector<double> scalar_us, batch_us, checker_ms, quiescent_ms;

  engine::drtree_backend be(in.cfg);
  std::vector<engine::sub_id> ids;
  {
    scoped_span phase(log, "populate", "bench");
    ids = populate(be, in.filters, log, ep, t_start);
  }

  const auto s0 = totals(be);
  std::size_t call = 0;
  const auto t_pub = clock_type::now();
  {
    scoped_span phase(log, "publish", "bench");
    const std::size_t block = in.batched ? 2 * kBatch : 1;
    const std::size_t scalars = in.batched ? kBatch : 1;
    for (std::size_t base = 0; base < in.events.size(); base += block) {
      for (std::size_t j = 0; j < scalars; ++j) {
        const auto i = base + j;
        const auto t0 = clock_type::now();
        engine::delivery_report r;
        {
          scoped_span sp(log, "backend::publish", "drtree.route", i);
          r = be.publish(ids[in.publishers[call++]], in.events[i]);
        }
        const double us = us_between(t0, clock_type::now());
        ep.publish_us.push_back(us);
        scalar_us.push_back(us);
        ep.hops.push_back(static_cast<double>(r.max_hops));
        ep.d.add(r, 1);
        ++ep.attempted;
      }
      if (!in.batched) continue;
      const auto i = base + kBatch;
      const auto t0 = clock_type::now();
      engine::delivery_report r;
      {
        scoped_span sp(log, "backend::publish_batch", "drtree.route", i);
        r = be.publish_batch(ids[in.publishers[call++]], &in.events[i],
                             kBatch);
      }
      const double us = us_between(t0, clock_type::now());
      ep.publish_us.push_back(us);
      batch_us.push_back(us / kBatch);
      ep.d.add(r, kBatch);
      ep.attempted += kBatch;
    }
  }
  ep.publish_s = seconds_between(t_pub, clock_type::now());
  const auto s1 = totals(be);
  quiescent_rounds(be, log, quiescent_ms);
  if (!check_legal(be, log, checker_ms)) {
    ep.failures.push_back("overlay not legal after publishes");
  }
  ep.wall_s = seconds_between(t_start, clock_type::now());

  const auto events = static_cast<double>(in.events.size());
  ep.counts["publish.steps"] = s1.steps - s0.steps;
  ep.counts["publish.timers"] = s1.timers - s0.timers;
  auto& L = ep.layer;
  L["net.delivered_per_sent"] =
      static_cast<double>(s1.delivered - s0.delivered) /
      static_cast<double>(s1.sent - s0.sent);
  L["drtree.scalar_us"] = median(scalar_us);
  L["drtree.batch_us_per_event"] = median(batch_us);
  L["drtree.quiescent_round_ms"] = median(quiescent_ms);
  L["drtree.checker_ms"] = median(checker_ms);
  L["sim.steps_per_event"] = static_cast<double>(s1.steps - s0.steps) / events;
  L["sim.timers_per_event"] =
      static_cast<double>(s1.timers - s0.timers) / events;
  L["drtree.arena_bytes_per_peer"] =
      static_cast<double>(arena_bytes(be)) /
      static_cast<double>(be.population());
  L["sim.steps_per_host_s"] = static_cast<double>(totals(be).steps) /
                              ep.wall_s;

  truth_queries(be, in.events, log, L);
  return ep;
}

// ================================================================ driver

/// Per-layer metrics of one traced episode, recorded between from/to.
void add_traced_layers(result& res, const tracer& tr, const episode& ep,
                       std::int64_t from, std::int64_t to,
                       const std::vector<pt>& codec_points) {
  auto& L = res.layer;
  for (const auto& [name, v] : ep.layer) L[name] = v;
  const auto joins = span_durations_us(tr, "backend::subscribe");
  L["drtree.join_us_p50"] = quantile(joins, 0.5);
  L["drtree.join_us_p99"] = quantile(joins, 0.99);
  // Growth of join cost with N: last tenth of populate over the first.
  const std::size_t tenth = joins.size() / 10;
  const std::vector<double> first(joins.begin(), joins.begin() + tenth);
  const std::vector<double> last(joins.end() - tenth, joins.end());
  L["drtree.join_growth"] = mean(last) / mean(first);
  L["drtree.hops_p50"] = quantile(ep.hops, 0.5);
  L["drtree.hops_p99"] = quantile(ep.hops, 0.99);
  L["drtree.fp_per_event"] =
      static_cast<double>(ep.d.fp) / static_cast<double>(ep.d.events);
  L["drtree.scalar_us"] = median(span_durations_us(tr, "backend::publish"));
  const auto codec = measure_codec(codec_points);
  if (!codec.ok) res.fail("wire codec round trip mismatch");
  L["rpc.wire.encode_ns"] = codec.encode_ns;
  L["rpc.wire.decode_ns"] = codec.decode_ns;
  const auto lt = summarize_layers(tr, from, to);
  L["obs.span_coverage"] = lt.coverage;
  const double wall = static_cast<double>(to - from) * 1e-9;
  for (const auto& [layer, s] : lt.self_s) {
    if (layer != "bench") L[layer + ".self_share"] = s / wall;
  }
}

/// Simulated counts of one episode, for the determinism check and the
/// digest.
std::map<std::string, std::uint64_t> sim_counts_of(const episode& ep) {
  auto c = ep.counts;
  c["publish.events"] = ep.d.events;
  c["publish.messages"] = ep.d.messages;
  c["publish.interested"] = ep.d.interested;
  c["publish.delivered"] = ep.d.delivered;
  c["publish.false_negatives"] = ep.d.fn;
  c["publish.false_positives"] = ep.d.fp;
  c["publish.hops_sum"] = ep.d.hops;
  c["population"] = ep.population;
  return c;
}

/// Runs episodes over `sets` input sets, drawn from seed*16+k, in turn.
/// Several input sets per run average out how much one draw of filters
/// happens to cost, so runs with different seeds agree more closely.
/// Episodes of the same set must agree on every simulated count.
template <typename MakeInputs, typename EpisodeFn>
result run_episodes(const options& opt, std::size_t sets, MakeInputs&& make,
                    EpisodeFn&& fn) {
  using inputs_type = decltype(make(std::uint64_t{}));
  result res;
  std::vector<inputs_type> in;
  for (std::size_t k = 0; k < sets; ++k) in.push_back(make(opt.seed * 16 + k));
  std::vector<episode> eps;
  if (opt.trace) {
    // Untraced then traced episode of the first set: their wall-time
    // ratio is the tracing overhead; layer numbers come from the traced
    // one.
    eps.push_back(fn(in[0], nullptr));
    tracer tr(true);
    span_log* log = tr.thread_log();
    const auto from = tr.now_ns();
    {
      scoped_span whole(log, "episode", "bench");
      eps.push_back(fn(in[0], log));
    }
    add_traced_layers(res, tr, eps.back(), from, tr.now_ns(), in[0].events);
    res.layer["obs.trace_overhead"] = eps.back().wall_s / eps.front().wall_s;
    if (!opt.trace_out.empty() && !tr.write_chrome(opt.trace_out)) {
      res.fail("cannot write span file " + opt.trace_out);
    }
  } else {
    const auto t0 = clock_type::now();
    while (eps.size() < std::max(kMinEpisodes, sets) ||
           seconds_between(t0, clock_type::now()) < opt.seconds) {
      eps.push_back(fn(in[eps.size() % sets], nullptr));
      // Footprint of one pass over the input sets; later episodes only
      // reuse what the allocator already holds.
      if (eps.size() == sets) res.e2e["peak_rss_mb"] = peak_rss_mb();
    }
  }

  // Same inputs, same simulated counts: any difference between episodes
  // of one set is nondeterminism in the program.
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const std::size_t k = opt.trace ? 0 : i % sets;
    const auto counts = sim_counts_of(eps[i]);
    if (i == k) {
      for (const auto& [name, v] : counts) {
        res.sim_counts["set" + std::to_string(k) + "." + name] = v;
      }
    } else if (counts != sim_counts_of(eps[k])) {
      res.fail("episode " + std::to_string(i) +
               ": simulated counts differ from episode " + std::to_string(k) +
               " on the same inputs");
    }
    res.attempted += eps[i].attempted;
    res.failed += eps[i].failed;
    for (const auto& f : eps[i].failures) res.fail(f);
  }

  // Delivery totals over one episode of each set.
  delivery_totals d;
  const std::size_t distinct = opt.trace ? 1 : sets;
  for (std::size_t k = 0; k < distinct; ++k) {
    const auto& e = eps[k].d;
    d.events += e.events;
    d.interested += e.interested;
    d.delivered += e.delivered;
    d.fp += e.fp;
    d.fn += e.fn;
    d.messages += e.messages;
  }
  res.delivered_ok = d.fn == 0 && d.delivered - d.fp == d.interested;

  if (!opt.trace) {
    std::vector<double> setup, rate, repair, joins, pubs;
    double rounds = 0;
    for (const auto& ep : eps) {
      setup.push_back(ep.setup_s);
      rate.push_back(static_cast<double>(ep.d.events) / ep.publish_s);
      repair.push_back(ep.repair_s);
      joins.insert(joins.end(), ep.join_us.begin(), ep.join_us.end());
      pubs.insert(pubs.end(), ep.publish_us.begin(), ep.publish_us.end());
    }
    for (std::size_t k = 0; k < sets; ++k) {
      const auto it = eps[k].counts.find("repair.rounds");
      if (it != eps[k].counts.end()) rounds += static_cast<double>(it->second);
    }
    auto& E = res.e2e;
    E["setup_s"] = median(setup);
    E["publish_rate"] = median(rate);
    E["publish_p50_us"] = quantile(pubs, 0.5);
    E["publish_p90_us"] = quantile(pubs, 0.9);
    E["publish_p99_us"] = quantile(pubs, 0.99);
    E["join_p50_us"] = quantile(joins, 0.5);
    E["join_p90_us"] = quantile(joins, 0.9);
    E["join_p99_us"] = quantile(joins, 0.99);
    E["msgs_per_event"] =
        static_cast<double>(d.messages) / static_cast<double>(d.events);
    E["fn_rate"] = d.interested == 0 ? 0.0
                                     : static_cast<double>(d.fn) /
                                           static_cast<double>(d.interested);
    E["recall"] = 1.0 - E["fn_rate"];
    if (rounds > 0) {
      E["repair_s"] = median(repair);
      E["repair_rounds"] = rounds / static_cast<double>(sets);
    }
    E["episodes"] = static_cast<double>(eps.size());
  }
  return res;
}

}  // namespace

result run_scale_churn(const options& opt) {
  return run_episodes(opt, kScaleSets, make_scale_inputs, scale_episode);
}

std::map<std::string, double> inproc_twin_layers(
    const drt::engine::overlay_backend_config& cfg,
    const std::vector<box>& filters, const std::vector<std::size_t>& publishers,
    const std::vector<pt>& events, tracer& tr) {
  sparse_inputs in;
  in.cfg = cfg;
  in.filters = filters;
  in.publishers.assign(publishers.begin(), publishers.end());
  in.events = events;
  in.batched = false;
  span_log* log = tr.thread_log();
  const auto from = tr.now_ns();
  episode ep;
  {
    scoped_span whole(log, "inproc_twin", "bench");
    ep = sparse_episode(in, log);
  }
  result res;
  add_traced_layers(res, tr, ep, from, tr.now_ns(), events);
  return res.layer;
}

result run_publish_sparse(const options& opt) {
  result res =
      run_episodes(opt, kSparseSets, make_sparse_inputs, sparse_episode);
  // Sparse interest on a quiescent tree: every interested subscription
  // must receive every event.
  if (!res.delivered_ok) {
    res.fail("publish_sparse: false negatives or missing deliveries");
  }
  return res;
}

}  // namespace perfbench
