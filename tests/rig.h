// The shared test fixture: a DR-tree behind the engine interface
// (engine::drtree_backend) driven by an engine::scenario_runner, with
// white-box access to the overlay for staging faults.  Tests that need
// more than the wrappers below call the runner's primitives and the
// backend directly.
#ifndef DRT_TESTS_RIG_H
#define DRT_TESTS_RIG_H

#include <cstddef>

#include "drtree/checker.h"
#include "engine/backends.h"
#include "engine/runner.h"

namespace drt::test {

struct rig {
  explicit rig(engine::overlay_backend_config config = {},
               engine::workload_profile workload = {})
      : backend(config), runner(backend, [&] {
          engine::runner_config rc;
          rc.workload = workload;
          return rc;
        }()) {}

  /// Add `n` subscriptions generated from the workload profile.
  void populate(std::size_t n) { runner.populate(n); }
  /// Add one subscription with an explicit filter.
  spatial::peer_id add(const spatial::box& filter) {
    return static_cast<spatial::peer_id>(runner.add(filter));
  }
  /// Stabilization rounds until legal; rounds needed, or -1.
  int converge(int max_rounds = 80) { return runner.converge(max_rounds); }
  bool legal() const { return backend.legal(); }
  /// Assertion-level check: a tracing overlay's first violation writes
  /// its flight dump, named by check_report::dump_path.
  overlay::check_report report(bool check_containment = false) const {
    return overlay::checker(backend.overlay())
        .check(check_containment, /*dump_on_violation=*/true);
  }
  overlay::dr_overlay& overlay() { return backend.overlay(); }
  /// A live non-root peer with an interior instance (a fault-staging
  /// victim), or kNoPeer.
  spatial::peer_id interior_non_root() {
    const auto root = overlay().current_root();
    for (const auto p : overlay().live_peers()) {
      if (p != root && overlay().peer(p).top() > 0) return p;
    }
    return spatial::kNoPeer;
  }

  engine::drtree_backend backend;
  engine::scenario_runner runner;
};

}  // namespace drt::test

#endif  // DRT_TESTS_RIG_H
