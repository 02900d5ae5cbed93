// Batched publication (DESIGN.md §9) end to end:
//
//  1. Build a DR-tree population with clustered interest via the
//     engine's declarative scenario builder, using the publish_batch
//     phase: events travel in shared multi-publish envelopes that route
//     the tree once and split only where children's MBRs diverge.
//  2. Publish the same number of events scalar (one envelope each) and
//     batched (64 per envelope) through the backend, and compare the
//     network cost per event at identical delivery accuracy.
#include <cstdio>
#include <iostream>

#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "workload/workload.h"

int main() {
  using namespace drt;

  // One declarative timeline: populate, converge, then a batched sweep.
  // The runner draws publishers and event values from the scenario seed,
  // so this run is bit-reproducible.
  const auto sc = engine::scenario::make("publish_batch")
                      .seed(11)
                      .family(workload::subscription_family::clustered)
                      .populate(128)
                      .converge()
                      .publish_batch(/*count=*/256, /*batch=*/32)
                      .build();

  engine::overlay_backend_config cfg;
  cfg.net.seed = 11;
  engine::drtree_backend backend(cfg);
  engine::scenario_runner runner(backend);
  const auto rec = runner.run(sc);
  const auto* row = rec.last("publish_batch");
  if (row == nullptr || row->false_negatives != 0) {
    std::cerr << "batched sweep lost events\n";
    return 1;
  }
  std::cout << "== Scenario phase: 256 events in batches of 32 ==\n"
            << "  deliveries " << row->deliveries << ", false negatives "
            << row->false_negatives << " (exactness preserved)\n";

  // Scalar vs batched, same population and event stream.
  std::cout << "\n== Messages per event, 128 peers, 256 events ==\n";
  engine::overlay_backend_config c2;
  c2.net.seed = 11;
  engine::drtree_backend be(c2);
  engine::runner_config rc;
  rc.workload.family = workload::subscription_family::clustered;
  rc.workload.seed = 11;
  engine::scenario_runner r(be, rc);
  r.populate(128);
  r.converge(300);
  const auto scalar = r.publish_sweep(256);
  const auto batched = r.publish_batch(256, 64);
  std::printf(
      "  scalar %.2f msgs/event | batch=64 %.2f msgs/event (fn %zu/%zu)\n",
      static_cast<double>(scalar.messages) /
          static_cast<double>(scalar.events),
      static_cast<double>(batched.messages) /
          static_cast<double>(batched.events),
      scalar.false_negatives, batched.false_negatives);
  if (scalar.false_negatives != 0 || batched.false_negatives != 0) {
    std::cerr << "sweep lost events\n";
    return 1;
  }
  if (batched.messages >= scalar.messages) {
    std::cerr << "batching did not reduce messages\n";
    return 1;
  }
  std::cout << "\nBatches amortize the descent: one envelope routes the "
               "tree once for every event it carries.\n";
  return 0;
}
