// Batched publication (DESIGN.md §9): delivery equivalence between
// k-event multi_publish envelopes and k single-event publishes, and the
// batch cost win the bench gates on.
//
// The equivalence harness runs *twin* overlays: identical config, seed,
// and operation sequence produce bit-identical trees, so the scalar twin
// and the batched twin disagree only if the batch protocol itself does.
// Stabilization timers are pushed out past the horizon during compares —
// a scalar run drains n times while a batched run drains once, so any
// timer firing mid-compare would let the topologies diverge for reasons
// that have nothing to do with batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/flooding.h"
#include "drtree/messages.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "pubsub/broker.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace drt::overlay {
namespace {

using spatial::peer_id;
using spatial::pt;

dr_config frozen_dr() {
  dr_config dr;
  dr.min_children = 2;
  dr.max_children = 6;
  dr.stabilize_period = 1e9;  // freeze topology during the compare
  return dr;
}

std::vector<spatial::box> gen_filters(std::uint64_t seed, std::size_t n) {
  util::rng rng(seed);
  workload::subscription_params params;
  return workload::make_subscriptions(workload::subscription_family::mixed, n,
                                      rng, params);
}

std::vector<pt> gen_events(std::uint64_t seed, std::size_t n,
                           const std::vector<spatial::box>& filters) {
  util::rng rng(seed);
  workload::subscription_params params;
  std::vector<pt> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Alternate matching and uniform draws so both delivery and pruning
    // paths are exercised (matching needs filters to draw from).
    const auto family = (filters.empty() || i % 2 != 0)
                            ? workload::event_family::uniform
                            : workload::event_family::matching;
    out.push_back(
        workload::make_event_point(family, rng, params.workspace, filters));
  }
  return out;
}

struct twin_overlays {
  dr_overlay scalar;
  dr_overlay batched;

  twin_overlays(const dr_config& dr, std::uint64_t net_seed)
      : scalar(dr, seeded(net_seed)), batched(dr, seeded(net_seed)) {}

  static sim::simulator_config seeded(std::uint64_t seed) {
    sim::simulator_config net;
    net.seed = seed;
    return net;
  }

  peer_id populate(const std::vector<spatial::box>& filters) {
    peer_id last = spatial::kNoPeer;
    for (const auto& f : filters) {
      last = scalar.add_peer_and_settle(f);
      const auto other = batched.add_peer_and_settle(f);
      EXPECT_EQ(last, other);
    }
    return last;
  }
};

/// Publish `values` scalar on one twin and batched on the other; the
/// per-event receiver sets and accuracy accounting must coincide.
void expect_equivalent(twin_overlays& tw, peer_id publisher,
                       const std::vector<pt>& values) {
  std::vector<publish_result> scalar;
  scalar.reserve(values.size());
  for (const auto& v : values) {
    scalar.push_back(tw.scalar.publish_and_drain(publisher, v));
  }
  const auto batched =
      tw.batched.multi_publish_and_drain(publisher, values.data(),
                                         values.size());
  ASSERT_EQ(batched.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(scalar[i].receivers, batched[i].receivers);
    EXPECT_EQ(scalar[i].interested, batched[i].interested);
    EXPECT_EQ(scalar[i].delivered, batched[i].delivered);
    EXPECT_EQ(scalar[i].false_positives, batched[i].false_positives);
    EXPECT_EQ(scalar[i].false_negatives, batched[i].false_negatives);
  }
}

// ------------------------------------------------- delivery equivalence

TEST(PublishBatch, DeliveryEquivalenceAcrossConfigs) {
  const std::size_t populations[] = {24, 64};
  const std::size_t batches[] = {4, 16, 64};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto n : populations) {
      for (const auto batch : batches) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" +
                     std::to_string(n) + " batch=" + std::to_string(batch));
        twin_overlays tw(frozen_dr(), 100 + seed);
        const auto filters = gen_filters(seed * 31 + 7, n);
        const auto publisher = tw.populate(filters);
        const auto values = gen_events(seed * 53 + 11, batch, filters);
        expect_equivalent(tw, publisher, values);
      }
    }
  }
}

TEST(PublishBatch, EquivalenceMidChurnWithCrashes) {
  // Crash a slice of the population and compare WITHOUT re-converging:
  // the batch path must match the scalar path on a broken tree too
  // (dead children skipped, fragments still reached identically).
  twin_overlays tw(frozen_dr(), 77);
  const auto filters = gen_filters(1234, 48);
  const auto publisher = tw.populate(filters);
  const auto live = tw.scalar.live_peers();
  for (std::size_t i = 0; i < live.size(); i += 5) {
    if (live[i] == publisher) continue;
    tw.scalar.crash(live[i]);
    tw.batched.crash(live[i]);
  }
  tw.scalar.settle();
  tw.batched.settle();
  const auto values = gen_events(99, 32, filters);
  expect_equivalent(tw, publisher, values);
}

TEST(PublishBatch, ChunksBeyondEnvelopeCapacity) {
  // More events than one dr_batch_msg holds: multi_publish must chunk
  // transparently and still deliver every event exactly once.
  twin_overlays tw(frozen_dr(), 5);
  const auto filters = gen_filters(42, 32);
  const auto publisher = tw.populate(filters);
  const auto values =
      gen_events(43, dr_batch_msg::kMaxEvents * 2 + 17, filters);
  expect_equivalent(tw, publisher, values);
}

TEST(PublishBatch, BatchedCostsFewerMessages) {
  twin_overlays tw(frozen_dr(), 9);
  const auto filters = gen_filters(7, 64);
  const auto publisher = tw.populate(filters);
  const auto values = gen_events(8, 32, filters);

  std::uint64_t scalar_messages = 0;
  for (const auto& v : values) {
    scalar_messages += tw.scalar.publish_and_drain(publisher, v).messages;
  }
  const auto batched = tw.batched.multi_publish_and_drain(
      publisher, values.data(), values.size());
  std::uint64_t batched_messages = 0;
  for (const auto& r : batched) batched_messages += r.messages;

  EXPECT_LT(batched_messages, scalar_messages)
      << "a shared envelope must beat per-event routing";
}

// ------------------------------------------------------ backend parity

TEST(PublishBatch, BackendBatchMatchesScalarAggregate) {
  auto make_cfg = [] {
    engine::overlay_backend_config cfg;
    cfg.dr = frozen_dr();
    cfg.net.seed = 21;
    return cfg;
  };
  engine::drtree_backend scalar_be(make_cfg());
  engine::drtree_backend batch_be(make_cfg());
  engine::scenario_runner r1(scalar_be), r2(batch_be);
  const auto ids1 = r1.populate(40);
  const auto ids2 = r2.populate(40);
  ASSERT_EQ(ids1, ids2);

  const auto values = gen_events(3, 16, {});
  engine::delivery_report scalar_total;
  for (const auto& v : values) {
    const auto r = scalar_be.publish(ids1[4], v);
    scalar_total.interested += r.interested;
    scalar_total.delivered += r.delivered;
    scalar_total.false_positives += r.false_positives;
    scalar_total.false_negatives += r.false_negatives;
  }
  const auto batch_total =
      batch_be.publish_batch(ids2[4], values.data(), values.size());
  EXPECT_EQ(batch_total.interested, scalar_total.interested);
  EXPECT_EQ(batch_total.delivered, scalar_total.delivered);
  EXPECT_EQ(batch_total.false_positives, scalar_total.false_positives);
  EXPECT_EQ(batch_total.false_negatives, scalar_total.false_negatives);
}

TEST(PublishBatch, ShardedBackendDeliversBatchesExactly) {
  engine::overlay_backend_config cfg;
  cfg.dr = frozen_dr();
  cfg.net.seed = 33;
  engine::sharded_drtree_backend be(cfg, 2);
  engine::scenario_runner runner(be);
  const auto ids = runner.populate(30);
  ASSERT_EQ(be.population(), 30u);

  const auto values = gen_events(12, 24, {});
  const auto rep = be.publish_batch(ids[3], values.data(), values.size());
  EXPECT_EQ(rep.false_negatives, 0u);
  EXPECT_GE(rep.delivered, rep.interested - rep.false_negatives);
  EXPECT_GT(rep.messages, 0u);
}

TEST(PublishBatch, BrokerBatchMatchesScalarOutcomes) {
  auto make_cfg = [] {
    pubsub::broker_config bc;
    bc.dr = frozen_dr();
    bc.net.seed = 55;
    return bc;
  };
  pubsub::broker scalar_br(make_cfg());
  pubsub::broker batch_br(make_cfg());
  const auto c1 = scalar_br.add_client();
  const auto c2 = batch_br.add_client();
  const auto filters = gen_filters(66, 24);
  for (const auto& f : filters) {
    scalar_br.subscribe(c1, f);
    batch_br.subscribe(c2, f);
  }
  const auto values = gen_events(67, 12, filters);
  const auto outs =
      batch_br.publish_batch(c2, values.data(), values.size());
  ASSERT_EQ(outs.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const auto s = scalar_br.publish(c1, values[i]);
    EXPECT_EQ(outs[i].notified, s.notified);
    EXPECT_EQ(outs[i].matching_clients, s.matching_clients);
    EXPECT_EQ(outs[i].client_false_positives, s.client_false_positives);
    EXPECT_EQ(outs[i].client_false_negatives, s.client_false_negatives);
  }
}

TEST(PublishBatch, ScenarioPhaseRunsOnBatchAndFallbackBackends) {
  const auto sc = engine::scenario::make("batch_smoke")
                      .seed(5)
                      .populate(24)
                      .converge()
                      .publish_batch(32, 8)
                      .build();
  // Native batch path.
  engine::overlay_backend_config cfg;
  cfg.net.seed = 3;
  engine::drtree_backend drbe(cfg);
  engine::scenario_runner r1(drbe);
  const auto rec = r1.run(sc);
  const auto* row = rec.last("publish_batch");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->events, 32u);
  EXPECT_EQ(row->false_negatives, 0u);
  // Fallback path (baseline backend has no native batches, so the base
  // class splits the batch into per-event publishes).
  engine::baseline_backend flood(
      std::make_unique<baselines::flooding>(4, 113));
  engine::scenario_runner r2(flood);
  const auto rec2 = r2.run(sc);
  const auto* row2 = rec2.last("publish_batch");
  ASSERT_NE(row2, nullptr);
  EXPECT_EQ(row2->events, 32u);
}

}  // namespace
}  // namespace drt::overlay
