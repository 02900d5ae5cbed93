// Dirty-set stabilization (DESIGN.md §11): scheduling must never change
// *what* the protocol computes, only *when* passes run.
//
//   * full mode stays bit-for-bit the legacy scheduler — the recorder
//     digests of the pre-PR goldens pin that;
//   * dirty mode produces the same delivery/accuracy metrics on canned
//     scenarios (metric equality, not digest equality: message counts
//     legitimately drop when clean peers skip their passes);
//   * silent corruption — state scrambled behind the scheduler's back,
//     with no dirty mark — is still found and repaired, because the
//     background sweep visits every peer within sweep_stride ticks;
//   * a quiescent overlay's backlog drains to zero and its pass count
//     collapses by ~sweep_stride, which is the whole point.
#include <gtest/gtest.h>

#include <cstdint>

#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "rig.h"

namespace drt::overlay {
namespace {

using engine::drtree_backend;
using engine::scenario_runner;
using spatial::kNoPeer;
using spatial::peer_id;
using test::rig;

engine::overlay_backend_config mode_config(stabilize_mode mode,
                                           std::uint64_t seed) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.stabilize = mode;
  return bc;
}

// ------------------------------------------------- full-mode golden pin

engine::metrics_recorder run_mode(const engine::scenario& sc,
                                  stabilize_mode mode,
                                  engine::overlay_backend_config bc) {
  bc.dr.stabilize = mode;
  drtree_backend be(engine::configured_for(sc, bc));
  scenario_runner runner(be);
  return runner.run(sc);
}

// The same pre-PR goldens net_test pins: stabilize_mode::full must stay
// the default AND keep the legacy periodic-timer schedule bit-for-bit.
constexpr std::uint64_t kGoldenRollingChurn = 2727552842464279799ull;
constexpr std::uint64_t kGoldenFlashCrowd = 2725230533165199554ull;
constexpr std::uint64_t kGoldenMassacreLossy = 12904214689126478679ull;

TEST(DirtyStabilize, FullModeKeepsPrePrGoldenDigests) {
  engine::overlay_backend_config bc;
  bc.net.seed = 41;
  // Explicitly full (also the default — a changed default would be a
  // silent behavior change for every existing config).
  ASSERT_EQ(engine::overlay_backend_config{}.dr.stabilize,
            stabilize_mode::full);
  EXPECT_EQ(run_mode(engine::canned::rolling_churn(48, 3, 12, 7),
                     stabilize_mode::full, bc)
                .digest(),
            kGoldenRollingChurn);
  EXPECT_EQ(run_mode(engine::canned::flash_crowd(24, 96, 7),
                     stabilize_mode::full, bc)
                .digest(),
            kGoldenFlashCrowd);

  auto lossy = bc;
  lossy.net.message_loss = 0.05;
  EXPECT_EQ(run_mode(engine::canned::massacre_then_heal(60, 1.0 / 3, 0.5, 7),
                     stabilize_mode::full, lossy)
                .digest(),
            kGoldenMassacreLossy);
}

// --------------------------------------------- dirty-vs-full metric parity

// `exact_accuracy`: compare FP/delivery counts cell-for-cell.  That holds
// when repairs are driven entirely by marked peers (joins, controlled
// leaves) so both modes walk the identical repair schedule.  After crash
// waves the *interleaving* differs — in full mode unmarked bystanders run
// passes mid-repair and may compact earlier — so the trees can converge
// to different (both legal) shapes; there only the ground-truth columns
// and zero-FN are invariants.
void expect_metric_parity(const engine::scenario& sc, bool exact_accuracy) {
  engine::overlay_backend_config bc;
  bc.net.seed = 41;
  const auto full = run_mode(sc, stabilize_mode::full, bc);
  const auto dirty = run_mode(sc, stabilize_mode::dirty, bc);

  ASSERT_EQ(full.phases().size(), dirty.phases().size()) << sc.name;
  for (std::size_t i = 0; i < full.phases().size(); ++i) {
    const auto& f = full.phases()[i];
    const auto& d = dirty.phases()[i];
    SCOPED_TRACE(sc.name + " phase " + std::to_string(i) + " (" + f.phase +
                 ")");
    ASSERT_EQ(f.phase, d.phase);
    // Population evolution and ground truth must be identical; message
    // and visited counts legitimately differ (that is the optimization).
    EXPECT_EQ(f.population, d.population);
    EXPECT_EQ(f.events, d.events);
    EXPECT_EQ(f.interested, d.interested);
    EXPECT_EQ(f.false_negatives, d.false_negatives);
    EXPECT_EQ(d.false_negatives, 0u);
    if (exact_accuracy) {
      EXPECT_EQ(f.deliveries, d.deliveries);
      EXPECT_EQ(f.false_positives, d.false_positives);
    }
    if (f.phase == "converge_until_legal") {
      EXPECT_GE(f.rounds, 0);
      EXPECT_GE(d.rounds, 0);
    }
  }
  // The scheduler actually did something different: clean peers skipped.
  std::uint64_t full_visited = 0, dirty_visited = 0, dirty_skipped = 0;
  for (const auto& m : full.phases()) full_visited += m.stabilize_visited;
  for (const auto& m : dirty.phases()) {
    dirty_visited += m.stabilize_visited;
    dirty_skipped += m.stabilize_skipped;
  }
  EXPECT_LT(dirty_visited, full_visited) << sc.name;
  EXPECT_GT(dirty_skipped, 0u) << sc.name;
}

TEST(DirtyStabilize, MetricsMatchFullModeOnRollingChurn) {
  expect_metric_parity(engine::canned::rolling_churn(48, 3, 12, 7), true);
}

TEST(DirtyStabilize, MetricsMatchFullModeOnFlashCrowd) {
  expect_metric_parity(engine::canned::flash_crowd(24, 96, 7), true);
}

TEST(DirtyStabilize, MetricsMatchFullModeOnMassacre) {
  expect_metric_parity(engine::canned::massacre_then_heal(60, 1.0 / 3, 0.5, 7),
                       false);
}

// ------------------------------------------- silent-corruption soundness

// Corruption kinds staged through the corruptor's targeted primitives,
// all of which scribble on arena state directly — no mark_dirty, no
// message, nothing the dirty-set scheduler can observe.  Soundness then
// rests entirely on the background sweep: every peer fires within
// sweep_stride ticks, so the fault is found and repair cascades (the
// repair traffic itself marks, so follow-up work is scheduled normally).
enum class silent_fault { leaf_mbr, parent, children, flag };

const char* fault_name(silent_fault f) {
  switch (f) {
    case silent_fault::leaf_mbr: return "leaf_mbr";
    case silent_fault::parent: return "parent";
    case silent_fault::children: return "children";
    case silent_fault::flag: return "flag";
  }
  return "?";
}

TEST(DirtyStabilize, SilentCorruptionRepairedByBackgroundSweep) {
  const silent_fault kinds[] = {silent_fault::leaf_mbr, silent_fault::parent,
                                silent_fault::children, silent_fault::flag};
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    for (const auto kind : kinds) {
      SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " fault " +
                   fault_name(kind));
      auto bc = mode_config(stabilize_mode::dirty, seed);
      rig r(bc);
      r.populate(36);
      ASSERT_GE(r.converge(), 0);
      // Drain the post-join backlog so the corruption is the only
      // outstanding fault when it lands.
      const int stride = static_cast<int>(bc.dr.sweep_stride);
      r.runner.step_rounds(stride);

      corruptor c(r.overlay(), seed * 131 + static_cast<std::uint64_t>(kind));
      switch (kind) {
        case silent_fault::leaf_mbr: {
          const auto victim = r.overlay().live_peers()[seed % 30];
          c.scramble_mbr(victim, 0);
          break;
        }
        case silent_fault::parent: {
          const auto victim = r.interior_non_root();
          ASSERT_NE(victim, kNoPeer);
          c.scramble_parent(victim, r.overlay().peer(victim).top());
          break;
        }
        case silent_fault::children: {
          const auto victim = r.interior_non_root();
          ASSERT_NE(victim, kNoPeer);
          c.scramble_children(victim, r.overlay().peer(victim).top());
          break;
        }
        case silent_fault::flag: {
          const auto victim = r.interior_non_root();
          ASSERT_NE(victim, kNoPeer);
          c.flip_underloaded(victim, r.overlay().peer(victim).top());
          break;
        }
      }
      if (r.legal()) continue;  // the scramble happened to be benign

      // The bound: one sweep_stride window to *find* the fault, one for
      // chained discoveries (e.g. orphaned children noticing their own
      // broken parent link), plus repair rounds proper.
      const int rounds = r.converge(3 * stride + 60);
      EXPECT_GE(rounds, 0) << "silent corruption never repaired";
      const auto report = checker(r.overlay()).check();
      EXPECT_TRUE(report.legal())
          << (report.violations.empty() ? "?" : report.violations.front());
    }
  }
}

// ------------------------------------------------ quiescence white-box

TEST(DirtyStabilize, QuiescentBacklogDrainsAndPassCountCollapses) {
  const std::uint64_t seed = 43;
  rig full(mode_config(stabilize_mode::full, seed));
  rig dirty(mode_config(stabilize_mode::dirty, seed));
  for (rig* r : {&full, &dirty}) {
    r->populate(48);
    ASSERT_GE(r->converge(), 0);
    // One full sweep window drains join-time marks.
    r->runner.step_rounds(
        static_cast<int>(r->backend.overlay().config().sweep_stride));
  }
  EXPECT_EQ(dirty.overlay().dirty_pending(), 0u)
      << "backlog did not drain at quiescence";

  const auto full0 = full.backend.counters();
  const auto dirty0 = dirty.backend.counters();
  const int window = 32;
  full.runner.step_rounds(window);
  dirty.runner.step_rounds(window);
  const auto full_visited =
      full.backend.counters().stabilize_visited - full0.stabilize_visited;
  const auto dirty_visited =
      dirty.backend.counters().stabilize_visited - dirty0.stabilize_visited;
  const auto dirty_skipped =
      dirty.backend.counters().stabilize_skipped - dirty0.stabilize_skipped;

  // Full mode visits everyone every round; dirty visits ~population/K
  // per round (background sweep only).  4x is a loose floor on the
  // K=16 design ratio.
  EXPECT_EQ(full_visited, 48u * window);
  EXPECT_GT(dirty_visited, 0u);  // the sweep does keep scanning
  EXPECT_LT(dirty_visited * 4, full_visited)
      << "dirty=" << dirty_visited << " full=" << full_visited;
  EXPECT_EQ(dirty_visited + dirty_skipped, full_visited)
      << "skipped accounting must cover exactly the passes not run";
  EXPECT_EQ(dirty.overlay().dirty_pending(), 0u);
  EXPECT_TRUE(full.legal());
  EXPECT_TRUE(dirty.legal());
}

TEST(DirtyStabilize, ChurnMarksThenQuiesces) {
  rig r(mode_config(stabilize_mode::dirty, 47));
  r.populate(40);
  ASSERT_GE(r.converge(), 0);
  r.runner.step_rounds(static_cast<int>(r.overlay().config().sweep_stride));
  ASSERT_EQ(r.overlay().dirty_pending(), 0u);

  // A crash marks the dead peer's neighborhood: backlog becomes nonzero
  // without any stabilization having run yet.
  const auto victim = r.interior_non_root();
  ASSERT_NE(victim, kNoPeer);
  r.overlay().crash(victim);
  EXPECT_GT(r.overlay().dirty_pending(), 0u)
      << "crash did not mark the survivors that must repair around it";

  ASSERT_GE(r.converge(120), 0);
  r.runner.step_rounds(static_cast<int>(r.overlay().config().sweep_stride));
  EXPECT_EQ(r.overlay().dirty_pending(), 0u)
      << "backlog did not re-drain after repair";
  EXPECT_TRUE(r.legal());
}

// ------------------------------------------------ repair reaches parent

/// A leaf c under a non-root interior q at h1 whose parent P (at h2) is
/// another non-root peer, picked so that dropping c shrinks q's MBR and
/// with it the union P must hold.  {q, c, P}, or all kNoPeer.
struct stale_union_pick {
  peer_id q = kNoPeer, c = kNoPeer, parent = kNoPeer;
};

stale_union_pick pick_stale_union(dr_overlay& ov) {
  const auto root = ov.current_root();
  for (const auto q : ov.live_peers()) {
    const auto& qp = ov.peer(q);
    if (q == root || qp.top() != 1) continue;
    const auto& qi = qp.inst(1);
    const auto parent = qi.parent;
    if (parent == q || parent == root || !ov.alive(parent)) continue;
    const auto* pi = ov.peer(parent).find_inst(2);
    if (pi == nullptr) continue;
    for (const auto c : qi.children) {
      if (c == q || ov.peer(c).top() != 0) continue;
      auto q_without_c = spatial::box::empty();
      for (const auto o : qi.children) {
        if (o != c) q_without_c = join(q_without_c, ov.peer(o).inst(0).mbr);
      }
      auto p_after = spatial::box::empty();
      for (const auto s : pi->children) {
        p_after = join(p_after, s == q ? q_without_c
                                       : ov.peer(s).inst(1).mbr);
      }
      if (!(p_after == pi->mbr)) return {q, c, parent};
    }
  }
  return {};
}

// A crash marks only the dead peer's direct neighbors.  Its parent q
// then discards the dead child in CHECK_CHILDREN and recomputes a
// smaller MBR, which leaves q's own parent P holding a stale union (and
// possibly an underloaded child) that only P's pass repairs.  The MBR
// change must mark P, so repair takes a round per level as in full mode
// instead of waiting up to sweep_stride rounds for P's background sweep.
TEST(DirtyStabilize, ChildMbrChangeMarksForeignParent) {
  int staged = 0;
  for (const std::uint64_t seed : {5u, 13u, 21u, 37u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    rig r(mode_config(stabilize_mode::dirty, seed));
    r.populate(160);
    ASSERT_GE(r.converge(), 0);
    r.runner.step_rounds(static_cast<int>(r.overlay().config().sweep_stride));
    ASSERT_EQ(r.overlay().dirty_pending(), 0u);
    const auto pick = pick_stale_union(r.overlay());
    if (pick.q == kNoPeer) continue;
    ++staged;

    r.overlay().crash(pick.c);
    const auto parent_slot = r.overlay().peer(pick.parent).slot_for_mark(2);
    EXPECT_FALSE(r.overlay().is_dirty(parent_slot))
        << "the crash itself should only mark c's direct neighbors";
    // One round: q discards c and its MBR shrinks.
    r.runner.step_rounds(1);
    EXPECT_FALSE(r.overlay().peer(pick.q).inst(1).has_child(pick.c));
    const int rounds = r.converge(4);
    EXPECT_GE(rounds, 0) << "P's stale union outlived four rounds";
  }
  EXPECT_GE(staged, 2) << "too few seeds gave a stageable tree";
}

// ------------------------------------------------- sharded-kernel skip

TEST(DirtyStabilize, ShardedDirtyQuiescesPerShard) {
  engine::overlay_backend_config bc;
  bc.net.seed = 53;
  bc.dr.stabilize = stabilize_mode::dirty;
  engine::sharded_drtree_backend be(bc, 4);
  scenario_runner runner(be);
  runner.populate(64);
  ASSERT_GE(runner.converge(120), 0);
  runner.step_rounds(static_cast<int>(bc.dr.sweep_stride));
  ASSERT_TRUE(be.legal());
  for (std::size_t s = 0; s < be.shards(); ++s) {
    EXPECT_EQ(be.dirty_pending(s), 0u) << "shard " << s;
  }
  // The quiescent fleet's pass count collapses: per round only the
  // background sweep (population / sweep_stride) plus each shard's
  // always-on root runs, instead of the whole population.
  const auto v0 = be.counters().stabilize_visited;
  const int window = 16;
  runner.step_rounds(window);
  const auto visited = be.counters().stabilize_visited - v0;
  const auto full_equiv =
      static_cast<std::uint64_t>(be.population()) * window;
  EXPECT_GT(visited, 0u);
  EXPECT_LT(visited * 4, full_equiv)
      << "visited=" << visited << " full-equivalent=" << full_equiv;
}

}  // namespace
}  // namespace drt::overlay
