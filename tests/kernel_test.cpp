// The sim::kernel sharding layer (DESIGN.md §8).
//
// Three contracts are pinned here:
//   1. kernel(1) is a pass-through: driving the full determinism-test
//      workload through a one-shard kernel reproduces the golden trace
//      hashes recorded for the plain single-loop simulator, bit for bit.
//   2. The one-shard sharded backend is operation-for-operation the
//      plain drtree_backend: their recorder digests are equal over the
//      canned scenarios.
//   3. N-shard runs are deterministic for fixed N — two fresh runs give
//      the same digest, and parallel execution gives the same digest as
//      sequential (shards share nothing; the ThreadSanitizer job runs
//      this suite).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "drtree/corruptor.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "sim/kernel.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace drt {
namespace {

// ------------------------------------------------------------ kernel unit

TEST(Kernel, PostedInjectionsDeliverAtTheNextBarrier) {
  sim::kernel_config kc;
  kc.shards = 2;
  sim::kernel k(kc);
  sim::simulator s0, s1;
  k.attach(0, s0);
  k.attach(1, s1);

  int delivered = 0;
  sim::simulator* seen = nullptr;
  k.post(0, 1, 16, [&](sim::simulator& dst) {
    ++delivered;
    seen = &dst;
  });
  EXPECT_EQ(delivered, 0);  // buffered until a barrier
  k.settle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(seen, &s1);
  EXPECT_EQ(k.metrics().cross_messages, 1u);
  EXPECT_EQ(k.metrics().cross_bytes, 16u);
}

TEST(Kernel, InjectionsFlushDestinationAscendingInPostOrder) {
  sim::kernel_config kc;
  kc.shards = 3;
  sim::kernel k(kc);
  sim::simulator sims[3];
  for (std::size_t i = 0; i < 3; ++i) k.attach(i, sims[i]);

  std::vector<int> order;
  k.post(0, 2, 0, [&](sim::simulator&) { order.push_back(20); });
  k.post(1, 0, 0, [&](sim::simulator&) { order.push_back(0); });
  k.post(0, 2, 0, [&](sim::simulator&) { order.push_back(21); });
  k.settle();
  EXPECT_EQ(order, (std::vector<int>{0, 20, 21}));
}

TEST(Kernel, AdvanceCountsLockstepWindows) {
  sim::kernel_config kc;
  kc.shards = 2;
  kc.window = 10.0;
  sim::kernel k(kc);
  sim::simulator s0, s1;
  k.attach(0, s0);
  k.attach(1, s1);

  k.advance(25.0);  // 10 + 10 + 5
  EXPECT_EQ(k.metrics().windows, 3u);
  EXPECT_EQ(k.metrics().barriers, 3u);
  EXPECT_DOUBLE_EQ(s0.now(), 25.0);
  EXPECT_DOUBLE_EQ(s1.now(), 25.0);
  // No shard had an event due inside any window, so every shard-window
  // was served inline (clock moved, no worker dispatched) — the
  // mechanism that makes quiescent shards cheap under dirty-mode
  // stabilization.
  EXPECT_EQ(k.metrics().shard_windows_idle, 6u);
}

// --------------------------------------------- kernel(1) golden pass-through

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof(v)); }

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fnv_u64(h, bits);
}

struct scenario_digest {
  std::uint64_t trace_hash = kFnvOffset;
  std::uint64_t metrics_hash = kFnvOffset;
  std::uint64_t deliveries = 0;
};

/// The sim_determinism_test workload verbatim, except every settle() and
/// advance() goes through a one-shard kernel.  The golden constants below
/// are the ones that suite pins for the plain simulator — if the kernel's
/// single-shard path fired one extra flush pass or shifted one window
/// edge, these hashes would move.
scenario_digest run_scenario_through_kernel(std::uint64_t seed) {
  overlay::dr_config dcfg;
  dcfg.workspace = geo::make_rect2(0, 0, 100, 100);
  sim::simulator_config scfg;
  scfg.seed = seed;
  scfg.message_loss = 0.02;
  overlay::dr_overlay o(dcfg, scfg);

  sim::kernel_config kc;
  kc.shards = 1;
  kc.window = dcfg.stabilize_period;
  sim::kernel k(kc);
  k.attach(0, o.sim());

  scenario_digest d;
  o.sim().set_trace([&d](const sim::simulator::trace_event& e) {
    fnv_double(d.trace_hash, e.at);
    fnv_u64(d.trace_hash, e.from);
    fnv_u64(d.trace_hash, e.to);
    fnv_u64(d.trace_hash, e.type);
    ++d.deliveries;
  });

  util::rng geo_rng(seed ^ 0x9e3779b97f4a7c15ull);
  auto random_box = [&] {
    const double x1 = geo_rng.uniform_real(0, 100);
    const double x2 = geo_rng.uniform_real(0, 100);
    const double y1 = geo_rng.uniform_real(0, 100);
    const double y2 = geo_rng.uniform_real(0, 100);
    return geo::make_rect2(std::min(x1, x2), std::min(y1, y2),
                           std::max(x1, x2), std::max(y1, y2));
  };

  for (int i = 0; i < 48; ++i) o.add_peer_and_settle(random_box());

  auto publish_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto live = o.live_peers();
      const auto pub = live[geo_rng.index(live.size())];
      const spatial::pt value{
          {geo_rng.uniform_real(0, 100), geo_rng.uniform_real(0, 100)}};
      o.publish_and_drain(pub, value);
    }
  };

  publish_some(10);

  for (int i = 0; i < 6; ++i) {
    const auto live = o.live_peers();
    if (live.size() <= 4) break;
    o.crash(live[geo_rng.index(live.size())]);
  }
  k.advance(dcfg.stabilize_period);
  k.settle();

  for (int i = 0; i < 4; ++i) {
    const auto live = o.live_peers();
    if (live.size() <= 4) break;
    o.controlled_leave(live[geo_rng.index(live.size())]);
  }
  k.settle();

  overlay::corruptor c(o, seed + 17);
  c.corrupt(overlay::uniform_corruption(0.05));
  for (int round = 0; round < 6; ++round) {
    k.advance(dcfg.stabilize_period);
    k.settle();
  }

  publish_some(10);
  for (int i = 0; i < 3; ++i) {
    const auto live = o.live_peers();
    o.search_and_drain(live[geo_rng.index(live.size())], random_box());
  }

  k.settle();

  const auto& m = o.sim().metrics();
  fnv_u64(d.metrics_hash, m.messages_sent);
  fnv_u64(d.metrics_hash, m.messages_delivered);
  fnv_u64(d.metrics_hash, m.messages_dropped);
  fnv_u64(d.metrics_hash, m.messages_partitioned);
  fnv_u64(d.metrics_hash, m.messages_to_dead);
  fnv_u64(d.metrics_hash, m.timers_fired);
  fnv_u64(d.metrics_hash, m.handler_steps);
  fnv_double(d.metrics_hash, o.sim().now());
  fnv_u64(d.metrics_hash, o.live_peers().size());
  return d;
}

TEST(KernelSingleShard, ReproducesGoldenTraceHashes) {
  const auto d7 = run_scenario_through_kernel(7);
  EXPECT_EQ(d7.trace_hash, 13395966864903312472ull);
  EXPECT_EQ(d7.metrics_hash, 9174459223774240891ull);
  EXPECT_EQ(d7.deliveries, 561ull);

  const auto d11 = run_scenario_through_kernel(11);
  EXPECT_EQ(d11.trace_hash, 10523553348140203879ull);
  EXPECT_EQ(d11.metrics_hash, 1650083232181740924ull);
  EXPECT_EQ(d11.deliveries, 588ull);
}

// ------------------------------------------------- sharded backend digests

std::uint64_t digest_of(engine::backend& be, const engine::scenario& sc) {
  engine::scenario_runner r(be);
  return r.run(sc).digest();
}

std::vector<engine::scenario> partition_free_canned() {
  // split_brain_heal needs cap_partition, which the sharded backend does
  // not advertise; the other three exercise churn, crashes, corruption
  // and publish sweeps — everything both backends support.
  return {engine::canned::flash_crowd(), engine::canned::rolling_churn(),
          engine::canned::massacre_then_heal()};
}

TEST(ShardedBackend, OneShardMatchesPlainBackendDigests) {
  for (const auto& sc : partition_free_canned()) {
    engine::drtree_backend plain;
    engine::sharded_drtree_backend sharded({}, 1);
    EXPECT_EQ(digest_of(plain, sc), digest_of(sharded, sc))
        << "scenario " << sc.name;
  }
}

TEST(ShardedBackend, FixedShardCountIsDeterministic) {
  for (const auto& sc : partition_free_canned()) {
    engine::sharded_drtree_backend a({}, 4);
    engine::sharded_drtree_backend b({}, 4);
    EXPECT_EQ(digest_of(a, sc), digest_of(b, sc)) << "scenario " << sc.name;
  }
}

TEST(ShardedBackend, ParallelMatchesSequentialDigest) {
  const auto sc = engine::canned::rolling_churn();
  engine::sharded_drtree_backend seq({}, 4, /*parallel=*/false);
  engine::sharded_drtree_backend par({}, 4, /*parallel=*/true);
  EXPECT_EQ(digest_of(seq, sc), digest_of(par, sc));
}

TEST(ShardedBackend, ShardsStayLegalAndAccountCrossTraffic) {
  engine::sharded_drtree_backend be({}, 3);
  engine::scenario_runner r(be);
  r.populate(30);
  r.converge(300);
  EXPECT_TRUE(be.legal());
  EXPECT_EQ(be.population(), 30u);
  EXPECT_EQ(be.shards(), 3u);
  EXPECT_EQ(be.active().size(), 30u);
  // Population is spread round-robin, so every shard grew a tree.
  for (std::size_t i = 0; i < be.shards(); ++i) {
    EXPECT_EQ(be.overlay(i).live_count(), 10u);
  }
}

TEST(ShardedBackend, MakeScenarioBackendHonorsShardsKnob) {
  const auto plain = engine::scenario::make("s").populate(4).build();
  auto sc4 = engine::scenario::make("s").shards(4).populate(4).build();
  auto b1 = engine::make_scenario_backend(plain);
  auto b4 = engine::make_scenario_backend(sc4);
  EXPECT_EQ(b1->name(), "drtree");
  EXPECT_EQ(b4->name(), "drtree_sharded");
  auto* sharded = dynamic_cast<engine::sharded_drtree_backend*>(b4.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shards(), 4u);
}

TEST(ShardedBackend, PublishCrossesShardsThroughTheKernel) {
  engine::sharded_drtree_backend be({}, 2);
  // One wide subscriber per shard: both must see a centred event.
  const auto wide = geo::make_rect2(0, 0, 1000, 1000);
  const auto s0 = be.subscribe(wide);
  const auto s1 = be.subscribe(wide);
  EXPECT_NE(s0, s1);
  be.settle();

  const auto rep = be.publish(s0, spatial::pt{{500.0, 500.0}});
  EXPECT_EQ(rep.interested, 2u);
  EXPECT_EQ(rep.delivered, 2u);
  EXPECT_EQ(rep.false_negatives, 0u);
  EXPECT_EQ(be.kernel().metrics().cross_messages, 1u);

  // Arena accounting sums both shards: two live peers, one leaf each.
  const auto st = be.arena_stats();
  EXPECT_EQ(st.live, 2u);
  EXPECT_GT(st.total_bytes(), 0u);
}

}  // namespace
}  // namespace drt
