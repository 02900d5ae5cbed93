// Service-mode throughput (DESIGN.md §10): events/sec and client-observed
// RPC latency through a drtd daemon over localhost sockets, swept over
// concurrent connections x batch size.
//
// The workload mirrors bench_publish_throughput (256 clustered sparse
// subscriptions, uniform events, the same seeds) so the two tables are
// directly comparable: the delta between them is the transport — wire
// codec, event loop, TCP round-trips — not the overlay.  Subscriptions
// are spread evenly across the publishing connections (not parked on an
// idle populator, which would never drain its pushes and trip the
// slow-consumer backpressure), and every publisher records per-RPC
// latency into its own obs::histogram; the per-thread histograms merge
// at the join barrier (the same merge semantics the sharded simulator
// uses, DESIGN.md §12) and the p50/p99/p999 columns read off the merged
// log-bucketed distribution — no sample vectors, no sorting.
//
// The table schema is bench_publish_throughput's seven columns plus
// clients/p50_us/p99_us, so compare_benches.sh gates both the same way.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/service.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/workload.h"

namespace {

using drt::bench::results;
using drt::util::table;

constexpr std::size_t kPopulation = 256;
constexpr std::size_t kTotalEvents = 4096;

void run_net_throughput(benchmark::State& state, std::size_t clients,
                        std::size_t batch) {
  drt::rpc::service_config cfg;
  cfg.backend.net.seed = 2007;
  // bench_publish_throughput's in-process overlay runs dr_config's
  // default full-mode scheduler; so does this daemon, so the two tables
  // differ only by transport.
  cfg.backend.dr.stabilize = drt::overlay::stabilize_mode::full;
  cfg.stabilize_every_ms = 0;  // measure the publish path, not repair
  drt::rpc::service service(cfg);
  std::thread daemon([&service] { service.run(); });

  // The same sparse clustered interest as bench_publish_throughput.
  drt::util::rng rng(99);
  drt::workload::subscription_params sp;
  sp.min_side_frac = 0.005;
  sp.max_side_frac = 0.02;
  const auto filters = drt::workload::make_subscriptions(
      drt::workload::subscription_family::clustered, kPopulation, rng, sp);

  // Connect the publishing clients and spread the population across
  // them; each publishes from its first owned subscription.
  std::vector<drt::rpc::client> conns(clients);
  std::vector<std::uint64_t> first_sub(clients, 0);
  for (std::size_t c = 0; c < clients; ++c) {
    if (!conns[c].connect(service.port())) {
      state.SkipWithError("connect failed");
      service.stop();
      daemon.join();
      return;
    }
  }
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const std::size_t c = i % clients;
    const auto s = conns[c].subscribe(filters[i]);
    if (i < clients) first_sub[c] = s;
  }

  // Pre-draw every event point so the measured region is pure RPC.
  const auto workspace = sp.workspace;
  std::vector<drt::spatial::pt> points(kTotalEvents);
  for (auto& p : points) {
    p = drt::workload::make_event_point(drt::workload::event_family::uniform,
                                        rng, workspace);
  }

  const std::uint64_t messages_before = conns[0].stat().messages;
  std::uint64_t deliveries = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t total_events = 0;
  drt::obs::histogram latency_us;

  for (auto _ : state) {
    std::atomic<std::uint64_t> sum_delivered{0};
    std::atomic<std::uint64_t> sum_fn{0};
    std::atomic<std::uint64_t> sum_events{0};
    std::vector<drt::obs::histogram> per_thread_us(clients);
    std::vector<std::thread> threads;
    const std::size_t share = kTotalEvents / clients;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& conn = conns[c];
        auto& lat = per_thread_us[c];
        const std::size_t begin = c * share;
        for (std::size_t i = begin; i < begin + share; i += batch) {
          const std::size_t k = std::min(batch, begin + share - i);
          const auto t0 = std::chrono::steady_clock::now();
          const auto r =
              k == 1 ? conn.publish(first_sub[c], points[i])
                     : conn.publish_batch(first_sub[c], points.data() + i, k);
          const auto t1 = std::chrono::steady_clock::now();
          lat.record(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count() /
              1000.0);
          sum_delivered += r.delivered;
          sum_fn += r.false_negatives;
          sum_events += k;
          conn.events().clear();
        }
      });
    }
    for (auto& th : threads) th.join();
    deliveries += sum_delivered.load();
    false_negatives += sum_fn.load();
    total_events += sum_events.load();
    // The barrier merge: thread-local histograms fold into the run's
    // distribution exactly like per-shard registries at a kernel barrier.
    for (const auto& lat : per_thread_us) latency_us += lat;
  }

  const std::uint64_t messages = conns[0].stat().messages - messages_before;
  service.stop();
  daemon.join();

  const double p50 = latency_us.quantile(0.50);
  const double p99 = latency_us.quantile(0.99);
  const double p999 = latency_us.quantile(0.999);
  const double msgs_per_event =
      total_events == 0 ? 0.0
                        : static_cast<double>(messages) /
                              static_cast<double>(total_events);

  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
  state.counters["msgs_per_event"] = msgs_per_event;
  state.counters["false_negatives"] = static_cast<double>(false_negatives);
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  state.counters["p999_us"] = p999;

  results::instance().set_headers({"N", "batch", "events", "msgs/event",
                                   "deliveries", "fn", "clients", "p50_us",
                                   "p99_us", "p999_us"});
  results::instance().add_row(
      {table::cell(kPopulation), table::cell(batch),
       table::cell(total_events), table::cell(msgs_per_event, 2),
       table::cell(deliveries), table::cell(false_negatives),
       table::cell(clients), table::cell(p50, 1), table::cell(p99, 1),
       table::cell(p999, 1)});
}

void BM_NetThroughput(benchmark::State& state) {
  run_net_throughput(state, static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)));
}

}  // namespace

BENCHMARK(BM_NetThroughput)
    ->Args({1, 1})
    ->Args({1, 16})
    ->Args({4, 1})
    ->Args({4, 16})
    ->Args({16, 1})
    ->Args({16, 16})
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "Service-mode throughput: clients x batch over localhost sockets",
    "The same 256-peer clustered workload as bench_publish_throughput, "
    "served by an in-process drtd over TCP; the delta against that table "
    "is transport cost.  Expect batch = 16 to beat the scalar path and "
    "p99 latency to grow with concurrent connections (one overlay, one "
    "loop thread).")
