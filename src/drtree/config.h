// Configuration of the DR-tree overlay protocol.
#ifndef DRT_DRTREE_CONFIG_H
#define DRT_DRTREE_CONFIG_H

#include <cstddef>

#include "obs/trace.h"
#include "rtree/split.h"
#include "sim/simulator.h"
#include "spatial/types.h"

namespace drt::overlay {

/// Parent/root election policy.  The paper (Fig. 6) elects the member
/// whose MBR has the largest coverage area; the alternatives exist for the
/// ablation experiment E12.
enum class election_policy {
  largest_mbr,   ///< the paper's rule
  smallest_mbr,  ///< adversarial control
  random_member  ///< containment-oblivious control
};

inline const char* to_string(election_policy p) {
  switch (p) {
    case election_policy::largest_mbr: return "largest_mbr";
    case election_policy::smallest_mbr: return "smallest_mbr";
    case election_policy::random_member: return "random";
  }
  return "?";
}

/// Which stabilization modules run on the periodic timer.  Disabling
/// modules is used by failure-injection tests to show each module is
/// *necessary* (the structure then fails to recover from the fault class
/// that module repairs).
struct stabilizer_switches {
  bool check_mbr = true;        // Fig. 10
  bool check_parent = true;     // Fig. 11
  bool check_children = true;   // Fig. 12
  bool check_cover = true;      // Fig. 13
  bool check_structure = true;  // Fig. 14
};

/// How the periodic stabilization pass is scheduled (DESIGN.md §11).
/// `full` is the paper's schedule, bit-for-bit: every peer runs every
/// CHECK_* module every period.  `dirty` visits a peer's chain only when
/// the overlay's dirty set marked one of its instances since the last
/// pass, plus a background full-sweep stride (each peer still runs every
/// `sweep_stride`-th tick unconditionally), so silent corruption — state
/// damaged without any protocol event — is found within `sweep_stride`
/// periods instead of one.  Self-stabilization is preserved; only the
/// detection latency for mutation-free faults grows, bounded by K.
enum class stabilize_mode {
  full,   ///< legacy: every peer, every period
  dirty,  ///< dirty-set + 1/K background sweep
};

inline const char* to_string(stabilize_mode m) {
  switch (m) {
    case stabilize_mode::full: return "full";
    case stabilize_mode::dirty: return "dirty";
  }
  return "?";
}

struct dr_config {
  /// R-tree degree bounds: every non-root interior node keeps between
  /// min_children (m) and max_children (M) children; the paper requires
  /// M >= 2m so splits can honor the lower bound.
  std::size_t min_children = 2;   ///< m
  std::size_t max_children = 8;   ///< M

  rtree::split_method split = rtree::split_method::quadratic;
  election_policy election = election_policy::largest_mbr;
  stabilizer_switches stabilizers{};

  /// Period of each peer's stabilization timer (virtual time).  The paper
  /// calls this the "timeout" driving the CHECK_* events.
  sim::sim_time stabilize_period = 10.0;

  /// Stabilization scheduling policy (see stabilize_mode above).
  stabilize_mode stabilize = stabilize_mode::full;

  /// Dirty mode's background-sweep factor K: a quiescent (never-marked)
  /// peer still runs its full pass every K-th period, staggered by peer
  /// id, bounding detection latency for silent corruption at K periods.
  std::size_t sweep_stride = 16;

  /// When true the FP-driven parent/child exchange of §3.2 ("Dynamic
  /// Reorganizations") runs on the stabilization timer (experiment E15).
  bool fp_reorganization = false;

  /// Controlled-departure repair strategy.  The paper's baseline (Fig. 9)
  /// merely notifies the parent and "relies on the stabilization
  /// mechanisms for repairing the subtree rooted at the departing node";
  /// it also notes "much more efficient variants are possible if the
  /// leave module drives the repair process and reconnects whole
  /// subtrees".  With this flag the departing peer hands each of its
  /// instance groups to a freshly elected leader on its way out, so no
  /// subtree ever needs to rejoin through the oracle.
  bool efficient_leave = false;

  /// Hop budget on routed messages: prevents livelock while routing over
  /// corrupted (possibly cyclic) parent pointers.  Generous — legal
  /// routes are O(log N).
  std::size_t max_route_hops = 64;

  /// Capacity of each peer's recently-seen event-id ring (the
  /// dissemination loop guard).  The ring is linear-scanned on every
  /// event arrival and costs 8 bytes per entry per peer, so million-peer
  /// runs shrink it; the default matches the historical constant.
  std::size_t seen_ring = 2048;

  /// The workspace used to clamp unbounded filters for area heuristics.
  spatial::box workspace = geo::make_rect2(0, 0, 1000, 1000);

  /// Flight-recorder tracing (DESIGN.md §12).  `off` costs exactly one
  /// null-pointer branch per emit site — runs are bit-identical to the
  /// pre-trace code, pinned by the metrics-digest tests; `ring` records
  /// protocol events into a bounded ring; `full` grows without bound and
  /// adds a record per simulator message delivery.
  obs::trace_mode trace = obs::trace_mode::off;

  /// With tracing on, automatically write a flight dump on the overlay's
  /// first false negative and on the checker's first violation report
  /// ($DRT_DUMP_DIR, default "."); the checker names the file in its
  /// report so CI failures carry their own diagnosis.
  bool trace_dump = true;
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_CONFIG_H
