// DR-tree protocol tests: joins, leaves, crashes, stabilization from
// arbitrary corruption, dissemination accuracy, and the legality
// predicates of Definition 3.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>

#include "analysis/models.h"
#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "drtree/overlay.h"
#include "spatial/sample.h"
#include "rig.h"

namespace drt::overlay {
namespace {

using spatial::kNoPeer;
using spatial::peer_id;
using test::rig;

/// Small fanout (m = 2, M = 6), the net stream seeded by `seed`.
engine::overlay_backend_config small_config(std::uint64_t seed = 1) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.min_children = 2;
  bc.dr.max_children = 6;
  return bc;
}

/// The workload stream paired with small_config(seed).
engine::workload_profile small_workload(std::uint64_t seed = 1) {
  engine::workload_profile wl;
  wl.seed = seed * 97 + 13;
  return wl;
}

// ------------------------------------------------------------ bootstrap

TEST(DrTree, SinglePeerIsLegalRoot) {
  rig dr(small_config(), small_workload());
  dr.add(geo::make_rect2(0, 0, 10, 10));
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.roots, 1u);
  EXPECT_EQ(r.height, 0u);
  EXPECT_EQ(r.live_peers, 1u);
}

TEST(DrTree, TwoPeersElectRootByLargestMbr) {
  rig dr(small_config(), small_workload());
  const auto small = dr.add(geo::make_rect2(0, 0, 10, 10));
  const auto large = dr.add(geo::make_rect2(0, 0, 500, 500));
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(dr.overlay().current_root(), large);
  EXPECT_FALSE(dr.overlay().peer(small).is_root());
  EXPECT_EQ(r.height, 1u);
  // The root appears at both levels (recursively its own child).
  EXPECT_TRUE(dr.overlay().peer(large).inst(1).has_child(large));
}

TEST(DrTree, ConcurrentJoinStormConverges) {
  // Launch many joins without settling between them: probes, descents,
  // and splits interleave arbitrarily in flight.
  rig dr(small_config(251), small_workload(251));
  for (int i = 0; i < 30; ++i) {
    auto params = dr.runner.config().workload.subs;
    params.workspace = dr.overlay().config().workspace;
    const auto rects = workload::make_subscriptions(
        workload::subscription_family::uniform, 1, dr.runner.rng(), params);
    dr.overlay().add_peer(rects[0]);  // no settle!
  }
  dr.overlay().settle();
  ASSERT_GE(dr.converge(150), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.live_peers, 30u);
  EXPECT_EQ(r.reachable, 30u);
}

TEST(DrTree, LeaveDuringJoinInFlight) {
  rig dr(small_config(257), small_workload(257));
  dr.populate(20);
  ASSERT_GE(dr.converge(), 0);
  // Start joins, then immediately remove peers before draining.
  auto params = dr.runner.config().workload.subs;
  params.workspace = dr.overlay().config().workspace;
  const auto rects = workload::make_subscriptions(
      workload::subscription_family::uniform, 5, dr.runner.rng(), params);
  for (const auto& r : rects) dr.overlay().add_peer(r);
  auto live = dr.overlay().live_peers();
  for (int i = 0; i < 5; ++i) {
    dr.overlay().controlled_leave(live[static_cast<std::size_t>(i) * 3]);
  }
  dr.overlay().settle();
  ASSERT_GE(dr.converge(200), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.live_peers, 20u);  // 20 + 5 joined - 5 left
}

TEST(DrTree, SequentialJoinsStayLegal) {
  rig dr(small_config(3), small_workload(3));
  for (std::size_t i = 0; i < 40; ++i) {
    dr.populate(1);
    ASSERT_GE(dr.converge(), 0) << "diverged after join " << i;
  }
  const auto r = dr.report();
  EXPECT_TRUE(r.legal());
  EXPECT_EQ(r.live_peers, 40u);
  EXPECT_EQ(r.reachable, 40u);
}

TEST(DrTree, HeightStaysLogarithmic) {
  auto bc = small_config(5);
  bc.dr.min_children = 2;
  bc.dr.max_children = 8;
  rig dr(bc, small_workload(5));
  dr.populate(128);
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report();
  ASSERT_TRUE(r.legal()) << r.violations.front();
  // Lemma 3.1: height O(log_m N); for N=128, m=2: <= ~7 + slack.
  EXPECT_TRUE(checker::within_height_bound(r.height, 2, 128, 2))
      << "height " << r.height;
  EXPECT_GE(r.height, 2u);
}

TEST(DrTree, PaperSampleBuildsLegalTree) {
  rig dr(small_config(7), small_workload(7));
  for (const auto& sub : spatial::sample_subscriptions()) {
    dr.add(sub.filter);
  }
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report(/*check_containment=*/true);
  EXPECT_TRUE(r.legal());
  // Property 3.1 (weak containment awareness) holds on the sample.
  EXPECT_EQ(r.weak_violations, 0u);
  EXPECT_GT(r.containment_pairs, 0u);
}

// --------------------------------------------------------- dissemination

TEST(DrTree, NoFalseNegativesOnUniformWorkload) {
  rig dr(small_config(11), small_workload(11));
  dr.populate(60);
  ASSERT_GE(dr.converge(), 0);
  const auto acc =
      dr.runner.publish_sweep(200, workload::event_family::uniform);
  EXPECT_EQ(acc.false_negatives, 0u);
  EXPECT_GT(acc.deliveries, 0u);
}

TEST(DrTree, NoFalseNegativesOnMatchingWorkload) {
  rig dr(small_config(13), small_workload(13));
  dr.populate(60);
  ASSERT_GE(dr.converge(), 0);
  const auto acc =
      dr.runner.publish_sweep(200, workload::event_family::matching);
  EXPECT_EQ(acc.false_negatives, 0u);
  EXPECT_GT(acc.interested, 0u);
}

TEST(DrTree, FalsePositiveRateIsLow) {
  rig dr(small_config(17), small_workload(17));
  dr.populate(100);
  ASSERT_GE(dr.converge(), 0);
  const auto acc =
      dr.runner.publish_sweep(300, workload::event_family::matching);
  // §4: "the false positive rate is in the order of 2-3% with most
  // workloads" — measured as the probability a peer receives an event it
  // did not subscribe to.  Allow headroom; bench E10 reports exact rates.
  EXPECT_LT(acc.fp_rate(), 0.10) << "fp rate " << acc.fp_rate();
  EXPECT_EQ(acc.false_negatives, 0u);
}

TEST(DrTree, PublicationCostLogarithmicNotBroadcast) {
  rig dr(small_config(19), small_workload(19));
  dr.populate(100);
  ASSERT_GE(dr.converge(), 0);
  const auto acc =
      dr.runner.publish_sweep(100, workload::event_family::uniform);
  // An event must not degenerate into a broadcast: messages per event
  // should be far below N on a sparse-match workload.
  EXPECT_LT(acc.messages_per_event(), 60.0);
}

TEST(DrTree, EventFromSampleWalkthrough) {
  // The paper's Fig. 4 walkthrough: event `a` published by S2 reaches
  // exactly the interested peers (S2, S3, S4 in our reconstruction, plus
  // any containers — no false negative, and the FP count is reported).
  rig dr(small_config(23), small_workload(23));
  std::vector<peer_id> ids;
  for (const auto& sub : spatial::sample_subscriptions()) {
    ids.push_back(dr.add(sub.filter));
  }
  ASSERT_GE(dr.converge(), 0);
  const auto a = spatial::sample_events()[0];
  const auto publisher = ids[1];  // S2
  const auto r = dr.overlay().publish_and_drain(publisher, a.value);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.interested, 5u);  // S2, S3, S4, S5, S6 contain `a`
  EXPECT_GE(r.delivered, r.interested);
}

// ------------------------------------------------------- departures

TEST(DrTree, ControlledLeavesStabilize) {
  rig dr(small_config(29), small_workload(29));
  dr.populate(50);
  ASSERT_GE(dr.converge(), 0);
  auto live = dr.overlay().live_peers();
  // Remove a third of the peers via controlled departures.
  for (std::size_t i = 0; i < 16; ++i) {
    const auto victim = live[i * 3 % live.size()];
    if (!dr.overlay().alive(victim)) continue;
    dr.overlay().controlled_leave(victim);
    dr.overlay().settle();
  }
  ASSERT_GE(dr.converge(120), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.reachable, r.live_peers);
}

TEST(DrTree, UncontrolledCrashesStabilize) {
  rig dr(small_config(31), small_workload(31));
  dr.populate(50);
  ASSERT_GE(dr.converge(), 0);
  auto live = dr.overlay().live_peers();
  dr.runner.rng().shuffle(live);
  for (std::size_t i = 0; i < 12; ++i) {
    dr.overlay().crash(live[i]);
  }
  ASSERT_GE(dr.converge(150), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.live_peers, 38u);
  EXPECT_EQ(r.reachable, 38u);
}

TEST(DrTree, RootCrashRecovers) {
  rig dr(small_config(37), small_workload(37));
  dr.populate(30);
  ASSERT_GE(dr.converge(), 0);
  const auto root = dr.overlay().current_root();
  ASSERT_NE(root, kNoPeer);
  dr.overlay().crash(root);
  ASSERT_GE(dr.converge(150), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.live_peers, 29u);
  EXPECT_NE(dr.overlay().current_root(), root);
}

TEST(DrTree, MassCrashRecovers) {
  rig dr(small_config(41), small_workload(41));
  dr.populate(60);
  ASSERT_GE(dr.converge(), 0);
  auto live = dr.overlay().live_peers();
  dr.runner.rng().shuffle(live);
  for (std::size_t i = 0; i < 30; ++i) dr.overlay().crash(live[i]);
  ASSERT_GE(dr.converge(250), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.live_peers, 30u);
}

// ---------------------------------------------------- self-stabilization

class CorruptionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionTest, ArbitraryCorruptionConverges) {
  // Lemma 3.6: from an arbitrary configuration the system reaches a
  // legitimate configuration in a finite number of steps.
  rig dr(small_config(GetParam()), small_workload(GetParam()));
  dr.populate(40);
  ASSERT_GE(dr.converge(), 0);

  corruptor c(dr.overlay(), GetParam() * 31 + 5);
  const auto mutations = c.corrupt(uniform_corruption(0.35));
  ASSERT_GT(mutations, 0u);

  const int rounds = dr.converge(250);
  ASSERT_GE(rounds, 0) << "never re-stabilized";
  const auto r = dr.report();
  EXPECT_TRUE(r.legal());
  EXPECT_EQ(r.reachable, r.live_peers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionTest,
                         ::testing::Values(43, 47, 53, 59, 61));

TEST(DrTree, CheckerDetectsEachCorruptionKind) {
  rig dr(small_config(67), small_workload(67));
  dr.populate(30);
  ASSERT_GE(dr.converge(), 0);
  ASSERT_TRUE(dr.legal());

  // Convergence can reshape the tree between corruptions, so re-pick a
  // non-root interior victim before each mutation.

  corruptor c(dr.overlay(), 71);

  auto victim = dr.interior_non_root();
  ASSERT_NE(victim, kNoPeer);
  c.scramble_mbr(victim, dr.overlay().peer(victim).top());
  EXPECT_FALSE(dr.legal());
  ASSERT_GE(dr.converge(100), 0);

  victim = dr.interior_non_root();
  ASSERT_NE(victim, kNoPeer);
  c.flip_underloaded(victim, dr.overlay().peer(victim).top());
  EXPECT_FALSE(dr.legal());
  ASSERT_GE(dr.converge(100), 0);

  victim = dr.interior_non_root();
  ASSERT_NE(victim, kNoPeer);
  c.scramble_children(victim, dr.overlay().peer(victim).top());
  EXPECT_FALSE(dr.legal());
  ASSERT_GE(dr.converge(150), 0);

  victim = dr.interior_non_root();
  ASSERT_NE(victim, kNoPeer);
  c.scramble_parent(victim, dr.overlay().peer(victim).top());
  EXPECT_FALSE(dr.legal());
  ASSERT_GE(dr.converge(150), 0);
}

TEST(DrTree, FabricatedInstancesDissolve) {
  rig dr(small_config(73), small_workload(73));
  dr.populate(25);
  ASSERT_GE(dr.converge(), 0);
  corruptor c(dr.overlay(), 79);
  for (int i = 0; i < 5; ++i) {
    const auto live = dr.overlay().live_peers();
    c.fabricate_instance(live[i * 4 % live.size()]);
  }
  EXPECT_FALSE(dr.legal());
  ASSERT_GE(dr.converge(200), 0);
  EXPECT_TRUE(dr.legal());
}

TEST(DrTree, DroppedInstancesRepair) {
  rig dr(small_config(83), small_workload(83));
  dr.populate(25);
  ASSERT_GE(dr.converge(), 0);
  corruptor c(dr.overlay(), 89);
  const auto root = dr.overlay().current_root();
  c.drop_top_instance(root);
  EXPECT_FALSE(dr.legal());
  ASSERT_GE(dr.converge(200), 0);
  EXPECT_TRUE(dr.legal());
}

// ------------------------------------------------------------- churn

TEST(DrTree, MixedChurnStaysRecoverable) {
  rig dr(small_config(97), small_workload(97));
  dr.populate(40);
  ASSERT_GE(dr.converge(), 0);
  auto& rng = dr.runner.rng();
  for (int step = 0; step < 30; ++step) {
    const double dice = rng.next_double();
    const auto live = dr.overlay().live_peers();
    if (dice < 0.4 || live.size() < 10) {
      dr.populate(1);
    } else if (dice < 0.7) {
      dr.overlay().controlled_leave(live[rng.index(live.size())]);
    } else {
      dr.overlay().crash(live[rng.index(live.size())]);
    }
    dr.overlay().advance(dr.overlay().config().stabilize_period / 2);
    dr.overlay().settle();
  }
  ASSERT_GE(dr.converge(250), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.reachable, r.live_peers);
  // Accuracy survives churn.
  const auto acc =
      dr.runner.publish_sweep(50, workload::event_family::matching);
  EXPECT_EQ(acc.false_negatives, 0u);
}

// --------------------------------------------- parameterized variations

// gtest prints a parameter with no PrintTo as its raw bytes, and that
// dump is part of the ctest name. The fields therefore leave no padding
// and hold no pointer, so every run lists the same names.
struct variation {
  rtree::split_method split;
  std::uint32_t leaves = 15;
  std::size_t m;
  std::size_t big_m;
  std::size_t peers = 60;
};
static_assert(std::has_unique_object_representations_v<variation>);

class VariationTest : public ::testing::TestWithParam<variation> {};

TEST_P(VariationTest, JoinsLeavesStayLegal) {
  auto bc = small_config(101);
  bc.dr.split = GetParam().split;
  bc.dr.min_children = GetParam().m;
  bc.dr.max_children = GetParam().big_m;
  rig dr(bc, small_workload(101));
  dr.populate(GetParam().peers);
  ASSERT_GE(dr.converge(), 0);
  EXPECT_TRUE(dr.legal());
  auto live = dr.overlay().live_peers();
  dr.runner.rng().shuffle(live);
  for (std::uint32_t i = 0; i < GetParam().leaves; ++i) {
    dr.overlay().controlled_leave(live[i]);
  }
  ASSERT_GE(dr.converge(200), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  const auto acc = dr.runner.publish_sweep(50);
  EXPECT_EQ(acc.false_negatives, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VariationTest,
    ::testing::Values(
        variation{.split = rtree::split_method::linear, .m = 2, .big_m = 4},
        variation{.split = rtree::split_method::quadratic, .m = 2, .big_m = 8},
        variation{.split = rtree::split_method::rstar, .m = 3, .big_m = 6},
        variation{.split = rtree::split_method::quadratic, .m = 4, .big_m = 10}),
    [](const auto& info) {
      const variation& v = info.param;
      return std::string(rtree::to_string(v.split)) + "_m" +
             std::to_string(v.m) + "M" + std::to_string(v.big_m);
    });

class ElectionTest : public ::testing::TestWithParam<election_policy> {};

TEST_P(ElectionTest, OverlayLegalUnderAnyPolicy) {
  auto bc = small_config(103);
  bc.dr.election = GetParam();
  rig dr(bc, small_workload(103));
  dr.populate(50);
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  const auto acc = dr.runner.publish_sweep(80);
  EXPECT_EQ(acc.false_negatives, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ElectionTest,
                         ::testing::Values(election_policy::largest_mbr,
                                           election_policy::smallest_mbr,
                                           election_policy::random_member),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(DrTree, JoinsSucceedUnderMessageLoss) {
  auto bc = small_config(107);
  bc.net.message_loss = 0.15;
  rig dr(bc, small_workload(107));
  dr.populate(30);
  // With loss, joins may need several probe rounds.
  ASSERT_GE(dr.converge(300), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.reachable, 30u);
}

TEST(DrTree, OracleRootModeWorks) {
  rig dr(small_config(109), small_workload(109));
  dr.overlay().oracle = oracle_mode::root;
  dr.populate(30);
  ASSERT_GE(dr.converge(), 0);
  EXPECT_TRUE(dr.legal());
}

// Get_Contact_Node() runs on the simulator's order-statistic live set.
// The reference below is the linear pick it replaced: draw k over the
// live peers other than `asking`, then walk to the k-th in id order.
// Both must name the same peer and leave the RNG in the same state,
// across crashes and restarts, for live and dead askers alike.
peer_id linear_contact(const dr_overlay& ov, peer_id asking, util::rng& rng) {
  const std::size_t candidates =
      ov.live_count() - (ov.alive(asking) ? 1 : 0);
  if (candidates == 0) return kNoPeer;
  std::size_t k = rng.index(candidates);
  peer_id chosen = kNoPeer;
  ov.for_each_live([&](peer_id id) {
    if (id == asking) return true;
    if (k == 0) {
      chosen = id;
      return false;
    }
    --k;
    return true;
  });
  return chosen;
}

TEST(DrTree, ContactPickMatchesLinearWalk) {
  for (const std::uint64_t seed : {1u, 5u, 2007u, 4242u}) {
    sim::simulator_config sc;
    sc.seed = seed;
    dr_overlay ov({}, sc);
    util::rng ops(seed * 31 + 7);
    std::size_t picks = 0;
    for (int step = 0; step < 900; ++step) {
      const auto n = ov.sim().process_count();
      const double roll = ops.next_double();
      if (n < 2 || roll < 0.4) {
        const double x = ops.uniform_real(0, 900);
        const double y = ops.uniform_real(0, 900);
        ov.add_peer(geo::make_rect2(x, y, x + 20, y + 20));
      } else {
        const auto p = static_cast<peer_id>(ops.index(n));
        if (roll < 0.6 && ov.alive(p)) ov.crash(p);
        if (roll >= 0.6 && roll < 0.75 && !ov.alive(p)) ov.restart(p);
      }
      const auto asking =
          static_cast<peer_id>(ops.index(ov.sim().process_count()));
      util::rng ref_rng = ov.sim().rng();
      const auto want = linear_contact(ov, asking, ref_rng);
      const auto got = ov.contact_node(asking);
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      ASSERT_NE(got, asking);
      util::rng after = ov.sim().rng();
      ASSERT_EQ(after.next_u64(), ref_rng.next_u64());
      if (got != kNoPeer) ++picks;
    }
    EXPECT_GT(picks, 800u);
    // The population crossed several 64-id words of the live bitmap.
    EXPECT_GT(ov.sim().process_count(), 300u);
  }
}

TEST(DrTree, FpReorganizationKeepsLegality) {
  auto bc = small_config(113);
  bc.dr.fp_reorganization = true;
  rig dr(bc, small_workload(113));
  dr.populate(40);
  ASSERT_GE(dr.converge(), 0);
  const auto acc =
      dr.runner.publish_sweep(300, workload::event_family::hotspot);
  EXPECT_EQ(acc.false_negatives, 0u);
  ASSERT_GE(dr.converge(150), 0);
  EXPECT_TRUE(dr.legal());
}

// --------------------------------------------------------------- search

TEST(DrTreeSearch, RangeQueriesMatchBruteForce) {
  rig dr(small_config(211), small_workload(211));
  dr.populate(80);
  ASSERT_GE(dr.converge(), 0);
  auto& rng = dr.runner.rng();
  const auto live = dr.overlay().live_peers();
  for (int q = 0; q < 40; ++q) {
    const double x = rng.uniform_real(0, 900);
    const double y = rng.uniform_real(0, 900);
    const auto query = geo::make_rect2(x, y, x + rng.uniform_real(10, 100),
                                       y + rng.uniform_real(10, 100));
    const auto origin = live[rng.index(live.size())];
    const auto r = dr.overlay().search_and_drain(origin, query);
    EXPECT_EQ(r.false_negatives, 0u) << "query " << q;
    EXPECT_EQ(r.false_positives, 0u) << "query " << q;
  }
}

TEST(DrTreeSearch, CostIsLogarithmicNotLinear) {
  rig dr(small_config(223), small_workload(223));
  dr.populate(120);
  ASSERT_GE(dr.converge(), 0);
  auto& rng = dr.runner.rng();
  const auto live = dr.overlay().live_peers();
  // A tiny query touching few filters must not visit most of the overlay.
  std::uint64_t total_messages = 0;
  int queries = 0;
  for (int q = 0; q < 20; ++q) {
    const double x = rng.uniform_real(0, 990);
    const double y = rng.uniform_real(0, 990);
    const auto query = geo::make_rect2(x, y, x + 5, y + 5);
    const auto r =
        dr.overlay().search_and_drain(live[rng.index(live.size())], query);
    EXPECT_EQ(r.false_negatives, 0u);
    total_messages += r.messages;
    ++queries;
  }
  EXPECT_LT(static_cast<double>(total_messages) / queries, 60.0);
}

TEST(DrTreeSearch, WholeWorkspaceQueryFindsEveryone) {
  rig dr(small_config(227), small_workload(227));
  dr.populate(50);
  ASSERT_GE(dr.converge(), 0);
  const auto origin = dr.overlay().live_peers().front();
  const auto r = dr.overlay().search_and_drain(
      origin, dr.overlay().config().workspace);
  EXPECT_EQ(r.hits.size(), 50u);
  EXPECT_EQ(r.false_negatives, 0u);
}

// ------------------------------------------------------------ partition

TEST(DrTreePartition, SplitBrainHealsAfterPartitionLifts) {
  rig dr(small_config(229), small_workload(229));
  dr.populate(40);
  ASSERT_GE(dr.converge(), 0);

  // Surgically detach a subtree: pick a child of the root, make it a
  // fragment root, and drop it from the root's children.
  const auto root = dr.overlay().current_root();
  auto& rp = dr.overlay().peer(root);
  const auto h = rp.top();
  peer_id detached = kNoPeer;
  for (const auto c : rp.inst(h).children) {
    if (c != root) {
      detached = c;
      break;
    }
  }
  ASSERT_NE(detached, kNoPeer);
  rp.inst(h).remove_child(detached);
  dr.overlay().peer(detached).inst(h - 1).parent = detached;

  // Collect the fragment membership (peers under the detached subtree).
  std::set<peer_id> fragment;
  std::vector<std::pair<peer_id, std::size_t>> frontier{{detached, h - 1}};
  while (!frontier.empty()) {
    const auto [p, hh] = frontier.back();
    frontier.pop_back();
    fragment.insert(p);
    if (hh == 0) continue;
    if (const auto* ins = dr.overlay().peer(p).find_inst(hh)) {
      for (const auto c : ins->children) {
        if (c != p) frontier.emplace_back(c, hh - 1);
      }
    }
  }
  ASSERT_GE(fragment.size(), 1u);

  // Partition the network between the fragment and the rest: probes
  // cannot cross, so two legal-but-separate trees persist.
  dr.overlay().sim().set_link_filter(
      [fragment](sim::process_id from, sim::process_id to) {
        return fragment.count(static_cast<peer_id>(from)) ==
               fragment.count(static_cast<peer_id>(to));
      });
  for (int round = 0; round < 10; ++round) {
    dr.overlay().advance(dr.overlay().config().stabilize_period);
    dr.overlay().settle();
  }
  EXPECT_EQ(dr.overlay().root_peers().size(), 2u)
      << "fragments merged across a partition?";

  // Heal the partition: the root probes merge the fragments back.
  dr.overlay().sim().set_link_filter(nullptr);
  ASSERT_GE(dr.converge(150), 0);
  const auto r = dr.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.roots, 1u);
  EXPECT_EQ(r.reachable, 40u);
}

// --------------------------------------------------------- memory/shape

TEST(DrTree, MemoryPerPeerIsPolylogarithmic) {
  rig dr(small_config(127), small_workload(127));
  dr.populate(120);
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report();
  ASSERT_TRUE(r.legal());
  // Lemma 3.1: per-peer memory O(M log^2 N / log m).  Generous constant.
  const double bound =
      8.0 * analysis::predicted_memory(120,
                                       dr.overlay().config().min_children,
                                       dr.overlay().config().max_children);
  EXPECT_LT(static_cast<double>(r.max_peer_links), bound);
}

TEST(DrTree, WeakContainmentMostlyHoldsOnNestedWorkload) {
  // Property 3.1 is promoted by the largest-MBR election.  Under dynamic
  // insertion orders a containee whose *subtree MBR* outgrew a container's
  // can occasionally sit above it (the paper itself concedes "the order of
  // node insertion and removal may lead to sub-optimal configurations"),
  // so we bound the violation rate rather than assert zero.
  auto bc = small_config(131);
  auto wl = small_workload(131);
  wl.family = workload::subscription_family::nested;
  rig dr(bc, wl);
  dr.populate(50);
  ASSERT_GE(dr.converge(), 0);
  const auto r = dr.report(/*check_containment=*/true);
  EXPECT_TRUE(r.legal()) << r.violations.front();
  ASSERT_GT(r.containment_pairs, 0u);
  const double violation_rate =
      static_cast<double>(r.weak_violations) /
      static_cast<double>(r.containment_pairs);
  EXPECT_LT(violation_rate, 0.05) << r.weak_violations << " of "
                                  << r.containment_pairs;
  // Most containees should satisfy the strong property too.
  EXPECT_GT(static_cast<double>(r.strong_satisfied),
            0.6 * static_cast<double>(r.containment_pairs));
}

}  // namespace
}  // namespace drt::overlay
