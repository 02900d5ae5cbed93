// Experiment E13 (§3.2 split methods): linear vs quadratic vs R* splits.
//
// Expected shape (classical R-tree results, which the DR-tree inherits
// because it runs the identical split code): R* yields the least interior
// overlap and area (fewest false positives downstream), quadratic close
// behind, linear cheapest to compute but loosest; in the overlay the FP
// rate follows the same ordering.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "rtree/rtree.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/workload.h"

namespace {

using drt::bench::results;
using drt::rtree::split_method;
using drt::util::table;

void BM_SplitPolicy(benchmark::State& state) {
  const auto method = static_cast<split_method>(state.range(0));
  const bool clustered = state.range(1) != 0;

  // Part 1: classic R-tree structure quality.
  drt::util::rng rng(101 + state.range(0));
  drt::workload::subscription_params params;
  params.workspace = drt::geo::make_rect2(0, 0, 1000, 1000);
  const auto rects = drt::workload::make_subscriptions(
      clustered ? drt::workload::subscription_family::clustered
                : drt::workload::subscription_family::uniform,
      2000, rng, params);

  drt::rtree::rtree_config rc;
  rc.method = method;
  rc.rstar_reinsert = method == split_method::rstar;
  drt::rtree::rtree_stats stats;
  double query_nodes = 0.0;
  for (auto _ : state) {
    drt::rtree::rtree2 index(rc);
    for (std::size_t i = 0; i < rects.size(); ++i) index.insert(rects[i], i);
    stats = index.stats();
    index.last_nodes_visited = 0;
    std::size_t queries = 0;
    std::vector<std::uint64_t> hits;  // reused query buffer
    for (int q = 0; q < 500; ++q) {
      const auto p = drt::workload::make_event_point(
          drt::workload::event_family::uniform, rng, params.workspace);
      index.search_point(p, hits);
      benchmark::DoNotOptimize(hits.data());
      ++queries;
    }
    query_nodes = static_cast<double>(index.last_nodes_visited) /
                  static_cast<double>(queries);
  }

  // Part 2: DR-tree overlay accuracy with the same split code.
  drt::engine::overlay_backend_config bc;
  bc.dr.split = method;
  bc.net.seed = 103 + state.range(0);
  drt::engine::runner_config run_cfg;
  run_cfg.workload.family = clustered
                                ? drt::workload::subscription_family::clustered
                                : drt::workload::subscription_family::uniform;
  drt::engine::drtree_backend be(bc);
  drt::engine::scenario_runner runner(be, run_cfg);
  runner.populate(128);
  runner.converge(80);
  const auto acc =
      runner.publish_sweep(200, drt::workload::event_family::matching);

  state.counters["interior_overlap"] = stats.interior_overlap;
  state.counters["query_nodes"] = query_nodes;
  state.counters["overlay_fp"] = acc.fp_rate();

  results::instance().set_headers({"split", "workload", "rtree_overlap",
                                   "rtree_area", "splits", "reinserts",
                                   "query_nodes", "overlay_fp_rate"});
  results::instance().add_row(
      {to_string(method), clustered ? "clustered" : "uniform",
       table::cell(stats.interior_overlap, 0),
       table::cell(stats.interior_area, 0), table::cell(stats.splits),
       table::cell(stats.reinsertions), table::cell(query_nodes, 1),
       table::cell(acc.fp_rate(), 4)});
}

}  // namespace

BENCHMARK(BM_SplitPolicy)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})  // method x workload
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E13: split-policy ablation (linear vs quadratic vs R*, §3.2)",
    "Expect R* to minimize interior overlap/area and query cost, linear "
    "to be loosest; the overlay FP rate follows the same ordering.")
