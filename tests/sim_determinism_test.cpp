// Determinism contract of the simulator substrate (DESIGN.md):
// event execution follows the strict total order (at, seq), so a seeded
// run is bit-reproducible — across repeated runs, and across scheduler
// implementations (the binary-heap seed vs the calendar queue).
//
// The scenario below exercises every queue path at once: joins, periodic
// stabilizers, message loss, crashes (in-flight purge), controlled
// leaves, corruption repair, publishes and range searches.  Its delivery
// trace is folded into an FNV-1a hash (including the raw bit patterns of
// the delivery timestamps) and compared against golden values recorded
// with the original std::priority_queue scheduler.  If a scheduler change
// reorders two events or perturbs one timestamp, these hashes move.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "drtree/corruptor.h"
#include "drtree/overlay.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace drt {
namespace {

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

  friend bool operator==(const scenario_digest&,
                         const scenario_digest&) = default;
};

/// Churn + corruption + dissemination workload over the full overlay
/// stack, fingerprinted via the simulator trace hook.  Publishes go out
/// `batch` events per envelope (1 = scalar publish_and_drain).
scenario_digest run_scenario(std::uint64_t seed, int batch = 1) {
  overlay::dr_config dcfg;
  dcfg.workspace = geo::make_rect2(0, 0, 100, 100);
  sim::simulator_config scfg;
  scfg.seed = seed;
  scfg.message_loss = 0.02;
  overlay::dr_overlay o(dcfg, scfg);

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
    for (int i = 0; i < count; i += batch) {
      const auto live = o.live_peers();
      const auto pub = live[geo_rng.index(live.size())];
      std::vector<spatial::pt> values;
      for (int j = 0; j < batch && i + j < count; ++j) {
        values.push_back(
            {{geo_rng.uniform_real(0, 100), geo_rng.uniform_real(0, 100)}});
      }
      if (batch == 1) {
        o.publish_and_drain(pub, values[0]);
      } else {
        o.multi_publish_and_drain(pub, values.data(), values.size());
      }
    }
  };

  publish_some(10);

  // Uncontrolled churn: crashes with traffic still in flight.
  for (int i = 0; i < 6; ++i) {
    const auto live = o.live_peers();
    if (live.size() <= 4) break;
    o.crash(live[geo_rng.index(live.size())]);
  }
  o.advance(dcfg.stabilize_period);
  o.settle();

  // Controlled churn.
  for (int i = 0; i < 4; ++i) {
    const auto live = o.live_peers();
    if (live.size() <= 4) break;
    o.controlled_leave(live[geo_rng.index(live.size())]);
  }
  o.settle();

  // Transient corruption, then stabilization rounds.
  overlay::corruptor c(o, seed + 17);
  c.corrupt(overlay::uniform_corruption(0.05));
  for (int round = 0; round < 6; ++round) {
    o.advance(dcfg.stabilize_period);
    o.settle();
  }

  publish_some(10);
  for (int i = 0; i < 3; ++i) {
    const auto live = o.live_peers();
    o.search_and_drain(live[geo_rng.index(live.size())], random_box());
  }

  // Drain completely before reading the counters so the crash-time /
  // delivery-time accounting split of messages_to_dead cannot show.
  o.settle();

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

TEST(SimDeterminism, SameSeedSameDigest) {
  const auto a = run_scenario(7);
  const auto b = run_scenario(7);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.deliveries, 0u);
}

TEST(SimDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_scenario(7), run_scenario(8));
}

// Golden digests recorded with the seed std::priority_queue scheduler.
// A scheduler that preserves the exact (at, seq) delivery order — and the
// exact RNG consumption order — reproduces them bit-for-bit.
TEST(SimDeterminism, MatchesHeapSchedulerGolden) {
  const auto d7 = run_scenario(7);
  EXPECT_EQ(d7.trace_hash, 13395966864903312472ull);
  EXPECT_EQ(d7.metrics_hash, 9174459223774240891ull);
  EXPECT_EQ(d7.deliveries, 561ull);

  const auto d11 = run_scenario(11);
  EXPECT_EQ(d11.trace_hash, 10523553348140203879ull);
  EXPECT_EQ(d11.metrics_hash, 1650083232181740924ull);
  EXPECT_EQ(d11.deliveries, 588ull);
}

// The same scenario with 4-event envelopes (batches of 4, 4, 2 per publish
// round): pins the multi-event envelope's routing — which children get
// which subset, in which order — the way the goldens above pin the
// one-event case.  Recorded when batches still travelled under kinds of
// their own; with those kinds mapped onto event_up/event_down, that
// implementation produced these same values.
TEST(SimDeterminism, BatchEnvelopeGolden) {
  const auto d7 = run_scenario(7, 4);
  EXPECT_EQ(d7.trace_hash, 15178632406645706044ull);
  EXPECT_EQ(d7.metrics_hash, 7963918147588321881ull);
  EXPECT_EQ(d7.deliveries, 525ull);
}

// Direct scheduler equivalence: the calendar queue must pop the exact
// (at, seq) sequence a binary heap pops.  Dense trials mix zero, short
// and long delays (long ones land in the overflow heap), partial drains
// and mid-stream purges.  Sparse trials keep a handful of timers pending,
// many bucket widths apart, so the cursor crosses long runs of empty
// buckets.  Their gaps reach three ring lengths, so the cursor wraps the
// ring many times and moves both inside the window and from an empty
// wheel to the overflow heap.  Clusters in
// one bucket and zero-delay pushes keep the active bucket partly drained
// when a purge lands.
TEST(CalendarQueue, MatchesBinaryHeapPopOrder) {
  using ref_item = std::pair<double, std::uint64_t>;  // (at, seq)
  using ref_heap = std::priority_queue<ref_item, std::vector<ref_item>,
                                       std::greater<ref_item>>;
  constexpr int kTargets = 7;
  util::rng r(2026);
  for (int trial = 0; trial < 10; ++trial) {
    const bool sparse = trial >= 6;
    const double max_gap = trial < 8 ? 1000.0 : 3000.0;  // sparse, widths
    // Exercise narrow and wide buckets relative to the delay mix.
    const double width = trial % 2 == 0 ? 0.125 : 0.9;
    sim::calendar_queue q(width);
    ref_heap ref;
    double now = 0.0;
    std::uint64_t seq = 0;
    auto push_at = [&](double at) {
      sim::pending_event ev;
      ev.at = at;
      ev.seq = seq;
      ev.what = sim::pending_event::kind::timer;
      ev.to = static_cast<sim::process_id>(seq % kTargets);
      q.push(std::move(ev));
      ref.emplace(at, seq);
      ++seq;
    };
    auto push_one = [&] {
      if (sparse) {
        const double at = now + r.uniform_real(2.0, max_gap) * width;
        push_at(at);
        if (r.chance(0.15)) {
          // A cluster in one bucket: drained over several pops.
          for (int i = 0; i < 4; ++i) {
            push_at(at + r.uniform_real(0.0, 0.5) * width);
          }
        }
        return;
      }
      double delay = 0.0;
      switch (r.uniform_int(0, 3)) {
        case 0: delay = 0.0; break;                        // active bucket
        case 1: delay = r.uniform_real(0.0, 1.5); break;   // nearby
        case 2: delay = r.uniform_real(0.0, 30.0); break;  // window-scale
        default: delay = r.uniform_real(0.0, 500.0);       // overflow
      }
      push_at(now + delay);
    };
    auto purge = [&] {
      // Crash-style purge: drop every event addressed to one target
      // from both structures, then keep comparing.
      const auto victim =
          static_cast<sim::process_id>(r.uniform_int(0, kTargets - 1));
      q.erase_if([victim](const sim::pending_event& ev) {
        return ev.to == victim;
      });
      ref_heap kept;
      for (; !ref.empty(); ref.pop()) {
        if (static_cast<sim::process_id>(ref.top().second % kTargets) !=
            victim) {
          kept.push(ref.top());
        }
      }
      ref = std::move(kept);
      ASSERT_EQ(q.size(), ref.size());
    };
    auto pop_and_check = [&] {
      const auto ev = q.pop();
      ASSERT_EQ(ev.at, ref.top().first);
      ASSERT_EQ(ev.seq, ref.top().second);
      ref.pop();
      ASSERT_GE(ev.at, now);
      now = ev.at;
    };
    for (int op = 0; op < 20000; ++op) {
      if (ref.size() < (sparse ? 2u : 1u) || r.chance(sparse ? 0.4 : 0.55)) {
        push_one();
      } else if (sparse && r.chance(0.05)) {
        push_at(now);  // zero delay: into the bucket being drained
      } else if (r.chance(sparse ? 0.05 : 0.002)) {
        purge();
      } else {
        pop_and_check();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!ref.empty()) {
      pop_and_check();
      if (::testing::Test::HasFatalFailure()) return;
      if (sparse && r.chance(0.05)) purge();  // mid-drain purges
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace drt
