// drtd_mixed: the DR-tree served over loopback TCP, driven open loop.
//
// An in-process rpc::service runs on its own thread with drtd's CLI
// defaults (250 ms wall-clock stabilizer, default dr_config, seed 1) and
// hosts 1,024 `mixed` filters spread over the publishing connections.
// Two generator threads send scalar publishes of `matching` events (dense
// interest: many pushed notifications per event) on a fixed schedule, at
// each offered rate of a fixed ladder in turn.  A third thread runs the
// writes beside them — subscribe/unsubscribe at a fixed rate on a churn
// connection that disconnects abruptly and reconnects every two seconds —
// and polls client::stat() once per second.  Daemon plus generators are
// four threads.  A run is several sessions, each a fresh daemon set up
// and driven through the whole ladder.
//
// Latency is timed from each request's due time, so a stall also charges
// the requests queued behind it; a failed or refused request counts as
// missing the limit.  The sustained rate is the highest offered rate
// whose p99 meets the limit (options::p99_limit_us, recorded in
// perfbench/spec.json) and whose generators ended the rate step less than
// that limit behind schedule (no growing backlog).
#include <algorithm>
#include <atomic>
#include <barrier>
#include <limits>
#include <string>
#include <thread>

#include "bench.h"
#include "rpc/client.h"
#include "rpc/service.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace engine = drt::engine;
namespace rpc = drt::rpc;
namespace workload = drt::workload;
using drt::spatial::box;
using drt::spatial::pt;

constexpr std::size_t kFilters = 1024;
constexpr std::size_t kPublishers = 2;  ///< generator threads/connections
/// Daemons per run, in turn, each driven for at least kMinSessionS: a
/// shorter session leaves the overload step too brief for its backlog to
/// show.
constexpr std::size_t kMaxSessions = 5;
constexpr double kMinSessionS = 8.0;
/// Setups timed before the sessions, on top of theirs: one setup is
/// 1,024 subscribe round trips racing the wall-clock stabilizer and
/// varies by ±25% within a run, so setup_s needs more samples than the
/// sessions give.
constexpr std::size_t kExtraSetups = 10;
constexpr std::size_t kStreamLength = 1 << 15;  ///< events per generator
/// Offered publish rates (events/s over all generators), in order, and
/// the share of the run each gets: a light load; the main operating
/// point, about a tenth of the loop's capacity on a 4-vCPU host, which
/// gets most of the samples; and an overload that shows the backlog
/// growing.  The steps are far apart on purpose: a rung near capacity
/// would pass or fail on noise alone, and the sustained rate with it.
/// The main point is light because queueing multiplies every slowdown of
/// a shared host into the latency tail.
constexpr double kRates[] = {50, 100, 2000};
constexpr double kRateShare[] = {0.1, 0.8, 0.1};
/// A generator this far behind schedule gives up the rest of the step:
/// those requests all miss the limit anyway, and sending them would only
/// stretch the run.
constexpr double kAbandonLagMs = 250;
constexpr double kChurnOpsPerS = 32;  ///< subscribe + unsubscribe calls
constexpr std::size_t kChurnHeld = 16;  ///< subscriptions the churner keeps
constexpr double kDisconnectEveryS = 2.0;
constexpr double kStatEveryS = 1.0;
constexpr double kSnapshotEveryS = 0.1;  ///< loop-wait probes (traced run)
constexpr double kFailedUs = std::numeric_limits<double>::infinity();

struct inputs {
  std::vector<box> filters;
  std::vector<box> churn_filters;
  /// Per generator: the filter index of each publish's publisher (one of
  /// the filters its connection owns) and the event point.
  std::vector<std::vector<std::size_t>> publisher;
  std::vector<std::vector<pt>> points;
};

inputs make_inputs(std::uint64_t seed) {
  inputs in;
  drt::util::rng rng(seed);
  const workload::subscription_params sp;
  in.filters = workload::make_subscriptions(
      workload::subscription_family::mixed, kFilters, rng, sp);
  in.churn_filters = workload::make_subscriptions(
      workload::subscription_family::mixed, 4096, rng, sp);
  in.publisher.resize(kPublishers);
  in.points.resize(kPublishers);
  for (std::size_t g = 0; g < kPublishers; ++g) {
    for (std::size_t i = 0; i < kStreamLength; ++i) {
      // Filter f lives on connection f % kPublishers.
      const std::size_t owned = kFilters / kPublishers;
      in.publisher[g].push_back(rng.index(owned) * kPublishers + g);
      in.points[g].push_back(workload::make_event_point(
          workload::event_family::matching, rng, sp.workspace, in.filters));
    }
  }
  return in;
}

/// drtd's command-line defaults.
rpc::service_config daemon_config() {
  rpc::service_config cfg;
  cfg.port = 0;  // ephemeral: runs never collide on a port
  cfg.stabilize_every_ms = 250;
  cfg.backend.net.seed = 1;
  return cfg;
}

/// The service on its own thread, stopped and joined on destruction.
class daemon {
 public:
  daemon() : svc_(daemon_config()), thread_([this] { svc_.run(); }) {}
  ~daemon() {
    svc_.stop();
    thread_.join();
  }
  daemon(const daemon&) = delete;
  daemon& operator=(const daemon&) = delete;
  rpc::service& svc() { return svc_; }

 private:
  rpc::service svc_;
  std::thread thread_;
};

/// A daemon populated with the workload's filters.
struct served {
  std::unique_ptr<daemon> d;
  std::vector<rpc::client> conns;  ///< one per generator
  std::vector<std::uint64_t> ids;  ///< daemon sub id of each filter
};

served set_up(const inputs& in, result& res) {
  served s;
  s.d = std::make_unique<daemon>();
  s.conns.resize(kPublishers);
  for (auto& c : s.conns) {
    ++res.attempted;
    if (!c.connect(s.d->svc().port())) {
      ++res.failed;
      res.fail("drtd_mixed: connect failed");
    }
  }
  for (std::size_t f = 0; f < in.filters.size(); ++f) {
    auto& c = s.conns[f % kPublishers];
    const auto id = c.subscribe(in.filters[f]);
    ++res.attempted;
    if (id == engine::kNoSub) ++res.failed;
    s.ids.push_back(id);
    c.events().clear();
  }
  return s;
}

/// One generator's record of one offered rate.
struct rung_record {
  std::vector<double> latency_us;  ///< from due time; kFailedUs = failed
  std::vector<double> lag_ms;      ///< send time - due time
  double final_lag_ms = 0.0;
  double first_due_s = 0.0;   ///< since the phase start
  double last_done_s = 0.0;
  std::uint64_t sent = 0, failed = 0, abandoned = 0;
  std::uint64_t interested = 0, fn = 0, messages = 0;
};

struct churn_record {
  /// Subscribe RTTs, by the rate step running when they were sent.
  std::vector<std::vector<double>> join_us =
      std::vector<std::vector<double>>(std::size(kRates));
  std::vector<double> stat_ms;
  std::vector<double> loop_wait_us;
  std::uint64_t attempted = 0, failed = 0, illegal_polls = 0;
};

/// Start of the current rate step, written by the barrier's completion
/// step before any generator is released into the step.
struct step_clock {
  clock_type::time_point phase0;
  clock_type::time_point start;
  std::atomic<std::size_t>* step = nullptr;  ///< read by the churn thread
  std::size_t next = 0;
  void operator()() noexcept {
    start = clock_type::now() + std::chrono::milliseconds(20);
    step->store(std::min(next++, std::size(kRates) - 1),
                std::memory_order_relaxed);
  }
};

/// Open-loop generator g: every request of each rate step is sent at its
/// due time or as soon after as the blocking connection allows.
void generate(const inputs& in, const served& s, rpc::client& conn,
              std::size_t g, double seconds,
              std::barrier<std::reference_wrapper<step_clock>>& sync,
              const step_clock& clk, std::vector<rung_record>& out,
              span_log* log) {
  std::size_t next = 0;
  std::uint64_t op = static_cast<std::uint64_t>(g) << 40;
  for (std::size_t k = 0; k < std::size(kRates); ++k) {
    // Both generators start each step together, after both finished the
    // previous one.
    sync.arrive_and_wait();
    auto& rec = out[k];
    const auto start = clk.start;
    const auto phase0 = clk.phase0;
    const double interval = static_cast<double>(kPublishers) / kRates[k];
    const auto count =
        static_cast<std::size_t>(seconds * kRateShare[k] / interval);
    rec.first_due_s = seconds_between(phase0, start);
    for (std::size_t i = 0; i < count; ++i) {
      const auto due =
          start + std::chrono::duration_cast<clock_type::duration>(
                      std::chrono::duration<double>(
                          (static_cast<double>(i) +
                           static_cast<double>(g) / kPublishers) *
                          interval));
      if (clock_type::now() < due) std::this_thread::sleep_until(due);
      const auto sent = clock_type::now();
      const double lag_ms = us_between(due, sent) / 1000.0;
      if (lag_ms > kAbandonLagMs) {
        rec.abandoned = count - i;
        rec.latency_us.insert(rec.latency_us.end(), count - i, kFailedUs);
        break;
      }
      rec.lag_ms.push_back(lag_ms);
      ++rec.sent;
      const std::size_t j = next++ % kStreamLength;
      rpc::report_body r;
      {
        scoped_span sp(log, "client::publish", "rpc.client", op++);
        r = conn.publish(s.ids[in.publisher[g][j]], in.points[g][j]);
      }
      const auto done = clock_type::now();
      conn.events().clear();
      if (r.ok == 0) {
        ++rec.failed;
        rec.latency_us.push_back(kFailedUs);
        if (!conn.ok()) {
          // A dead connection fails every request still due.
          const std::size_t rest = count - i - 1;
          rec.latency_us.insert(rec.latency_us.end(), rest, kFailedUs);
          rec.sent += rest;
          rec.failed += rest;
          break;
        }
        continue;
      }
      rec.latency_us.push_back(us_between(due, done));
      rec.interested += r.interested;
      rec.fn += r.false_negatives;
      rec.messages += r.messages;
      rec.last_done_s = seconds_between(phase0, done);
    }
    rec.final_lag_ms = rec.lag_ms.empty() ? 0.0 : rec.lag_ms.back();
  }
}

/// Writes beside the publishes, plus the monitoring poll.
void churn(const inputs& in, served& s, std::atomic<bool>& stop,
           const std::atomic<std::size_t>& step, churn_record& rec,
           span_log* log, bool probe_loop) {
  const auto port = s.d->svc().port();
  rpc::client conn(port);
  rpc::client monitor(port);
  std::vector<std::uint64_t> held;
  std::size_t next_filter = 0;
  std::uint64_t op = 3ull << 40;
  const auto t0 = clock_type::now();
  const auto at = [&](double sec) {
    return t0 + std::chrono::duration_cast<clock_type::duration>(
                    std::chrono::duration<double>(sec));
  };
  double next_op = 0, next_disconnect = kDisconnectEveryS,
         next_stat = kStatEveryS, next_probe = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const double wake = std::min({next_op, next_disconnect, next_stat,
                                  probe_loop ? next_probe : 1e300});
    std::this_thread::sleep_until(at(wake));
    const double now = seconds_between(t0, clock_type::now());
    if (now >= next_disconnect) {
      // Abrupt: the daemon unsubscribes everything the socket owned.
      conn.close();
      held.clear();
      ++rec.attempted;
      if (!conn.connect(port)) ++rec.failed;
      next_disconnect += kDisconnectEveryS;
    }
    if (now >= next_op) {
      ++rec.attempted;
      if (held.size() < kChurnHeld) {
        const auto t = clock_type::now();
        std::uint64_t id;
        {
          scoped_span sp(log, "client::subscribe", "rpc.client", op++);
          id = conn.subscribe(
              in.churn_filters[next_filter++ % in.churn_filters.size()]);
        }
        rec.join_us[step.load(std::memory_order_relaxed)].push_back(
            us_between(t, clock_type::now()));
        if (id == engine::kNoSub) {
          ++rec.failed;
        } else {
          held.push_back(id);
        }
      } else {
        scoped_span sp(log, "client::unsubscribe", "rpc.client", op++);
        if (!conn.unsubscribe(held.front())) ++rec.failed;
        held.erase(held.begin());
      }
      conn.events().clear();
      next_op += 1.0 / kChurnOpsPerS;
    }
    if (now >= next_stat) {
      const auto t = clock_type::now();
      rpc::stat_body st;
      {
        scoped_span sp(log, "client::stat", "rpc.client", op++);
        st = monitor.stat();
      }
      rec.stat_ms.push_back(us_between(t, clock_type::now()) / 1000.0);
      ++rec.attempted;
      if (!monitor.ok()) ++rec.failed;
      if (st.legal == 0) ++rec.illegal_polls;
      next_stat += kStatEveryS;
    }
    if (probe_loop && now >= next_probe) {
      // stats_snapshot() is marshalled through event_loop::post, so its
      // latency is the time a request waits for the loop thread.
      const auto t = clock_type::now();
      {
        scoped_span sp(log, "service::stats_snapshot", "rpc.service", op++);
        (void)s.d->svc().stats_snapshot();
      }
      rec.loop_wait_us.push_back(us_between(t, clock_type::now()));
      next_probe += kSnapshotEveryS;
    }
  }
}

using service_counters = rpc::service::counters;

/// One daemon's lifetime: set up, then every offered rate in turn.
struct session_record {
  double setup_s = 0.0;
  /// Per generator, per offered rate.
  std::vector<std::vector<rung_record>> rates;
  churn_record churn;
  service_counters before, after;  ///< around the offered rates
  std::int64_t from_ns = 0, to_ns = 0;
};

session_record run_session(const inputs& in, const options& opt,
                           double seconds, tracer& tr, result& res) {
  session_record rec;
  rec.rates.assign(kPublishers, std::vector<rung_record>(std::size(kRates)));
  const auto t0 = clock_type::now();
  served s = set_up(in, res);
  rec.setup_s = seconds_between(t0, clock_type::now());
  rec.before = s.d->svc().stats_snapshot();
  rec.from_ns = tr.now_ns();
  {
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> step{0};
    step_clock clk;
    clk.phase0 = clock_type::now();
    clk.step = &step;
    std::barrier sync(static_cast<std::ptrdiff_t>(kPublishers),
                      std::ref(clk));
    std::thread churner(churn, std::cref(in), std::ref(s), std::ref(stop),
                        std::cref(step), std::ref(rec.churn),
                        tr.thread_log(), opt.trace);
    std::vector<std::thread> threads;
    for (std::size_t g = 0; g < kPublishers; ++g) {
      threads.emplace_back(generate, std::cref(in), std::cref(s),
                           std::ref(s.conns[g]), g, seconds, std::ref(sync),
                           std::cref(clk), std::ref(rec.rates[g]),
                           tr.thread_log());
    }
    for (auto& t : threads) t.join();
    stop = true;
    churner.join();
  }
  rec.to_ns = tr.now_ns();
  rec.after = s.d->svc().stats_snapshot();
  return rec;
}

}  // namespace

result run_drtd_mixed(const options& opt) {
  result res;
  const auto in = make_inputs(opt.seed);
  tracer tr(opt.trace);
  const std::size_t rungs = std::size(kRates);

  // Sessions: a fresh daemon, set up and then driven through every
  // offered rate.  Setup time is the median over them, and the latency
  // samples pool several daemons' states instead of one.
  const auto count = std::clamp<std::size_t>(
      static_cast<std::size_t>(opt.seconds / kMinSessionS), 1, kMaxSessions);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kExtraSetups; ++i) {
    const auto t0 = clock_type::now();
    const served s = set_up(in, res);
    setup_s.push_back(seconds_between(t0, clock_type::now()));
  }
  std::vector<session_record> sessions;
  for (std::size_t i = 0; i < count; ++i) {
    sessions.push_back(run_session(
        in, opt, opt.seconds / static_cast<double>(count), tr, res));
  }

  double sustained = 0.0;
  std::size_t best = 0;
  std::uint64_t events = 0, interested = 0, fn = 0, messages = 0;
  for (std::size_t k = 0; k < rungs; ++k) {
    std::vector<double> lat, lag;
    double final_lag = 0.0, busy_s = 0.0;
    std::uint64_t sent = 0, failed = 0, abandoned = 0;
    for (const auto& ses : sessions) {
      double first = 1e300, last = 0.0;
      for (const auto& r : ses.rates) {
        const auto& x = r[k];
        lat.insert(lat.end(), x.latency_us.begin(), x.latency_us.end());
        lag.insert(lag.end(), x.lag_ms.begin(), x.lag_ms.end());
        final_lag = std::max(final_lag, x.final_lag_ms);
        first = std::min(first, x.first_due_s);
        last = std::max(last, x.last_done_s);
        sent += x.sent;
        failed += x.failed;
        abandoned += x.abandoned;
        interested += x.interested;
        fn += x.fn;
        messages += x.messages;
      }
      busy_s += last - first;
    }
    events += sent;
    res.attempted += sent;
    res.failed += failed;
    const double p99 = quantile(lat, 0.99);
    const bool grew =
        abandoned > 0 || final_lag * 1000.0 > opt.p99_limit_us;
    const std::string key =
        "rate." + std::to_string(static_cast<int>(kRates[k]));
    res.e2e[key + ".p50_us"] = quantile(lat, 0.5);
    res.e2e[key + ".p99_us"] = p99;
    res.e2e[key + ".lag_p99_ms"] = quantile(lag, 0.99);
    res.e2e[key + ".final_lag_ms"] = final_lag;
    res.e2e[key + ".backlog_grew"] = grew ? 1 : 0;
    res.e2e[key + ".failed"] = static_cast<double>(failed);
    res.e2e[key + ".abandoned"] = static_cast<double>(abandoned);
    res.e2e[key + ".completed_per_s"] =
        static_cast<double>(sent - failed) / busy_s;
    if (p99 <= opt.p99_limit_us && !grew) {
      sustained = kRates[k];
      best = k;
    }
  }

  // The gated numbers come from the sustained rate, or from the lowest
  // rate when none meets the limit, so the latency gate still sees how
  // far the system fell.
  {
    const std::size_t k = best;
    const std::string key =
        "rate." + std::to_string(static_cast<int>(kRates[k]));
    std::vector<double> lat, joins, lag;
    for (const auto& ses : sessions) {
      std::vector<double> mine, my_joins;
      for (const auto& r : ses.rates) {
        mine.insert(mine.end(), r[k].latency_us.begin(),
                    r[k].latency_us.end());
        lag.insert(lag.end(), r[k].lag_ms.begin(), r[k].lag_ms.end());
      }
      // Joins while every rate up to the sustained one was offered.
      for (std::size_t j = 0; j <= k; ++j) {
        my_joins.insert(my_joins.end(), ses.churn.join_us[j].begin(),
                        ses.churn.join_us[j].end());
      }
      lat.insert(lat.end(), mine.begin(), mine.end());
      joins.insert(joins.end(), my_joins.begin(), my_joins.end());
    }
    res.e2e["publish_rate"] = res.e2e[key + ".completed_per_s"];
    res.e2e["publish_p50_us"] = quantile(lat, 0.5);
    res.e2e["publish_p90_us"] = quantile(lat, 0.9);
    res.e2e["publish_p99_us"] = quantile(lat, 0.99);
    res.e2e["join_p50_us"] = quantile(joins, 0.5);
    res.e2e["join_p90_us"] = quantile(joins, 0.9);
    res.e2e["join_p99_us"] = quantile(joins, 0.99);
    res.e2e["join_samples"] = static_cast<double>(joins.size());
    if (opt.trace) res.layer["rpc.generator_lag_ms_p99"] = quantile(lag, 0.99);
  }

  std::vector<double> loop_wait, stat_ms;
  std::uint64_t illegal_polls = 0;
  service_counters delta;
  for (const auto& ses : sessions) {
    setup_s.push_back(ses.setup_s);
    loop_wait.insert(loop_wait.end(), ses.churn.loop_wait_us.begin(),
                     ses.churn.loop_wait_us.end());
    stat_ms.insert(stat_ms.end(), ses.churn.stat_ms.begin(),
                   ses.churn.stat_ms.end());
    illegal_polls += ses.churn.illegal_polls;
    res.attempted += ses.churn.attempted;
    res.failed += ses.churn.failed;
    delta.frames_out += ses.after.frames_out - ses.before.frames_out;
    delta.events_pushed += ses.after.events_pushed - ses.before.events_pushed;
    delta.stabilize_rounds +=
        ses.after.stabilize_rounds - ses.before.stabilize_rounds;
    delta.stabilize_skipped +=
        ses.after.stabilize_skipped - ses.before.stabilize_skipped;
  }
  res.e2e["sustained_rate"] = sustained;
  res.e2e["setup_s"] = median(setup_s);
  res.e2e["msgs_per_event"] =
      static_cast<double>(messages) / static_cast<double>(events);
  res.e2e["fn_rate"] = interested == 0 ? 0.0
                                       : static_cast<double>(fn) /
                                             static_cast<double>(interested);
  res.e2e["recall"] = 1.0 - res.e2e["fn_rate"];
  res.e2e["illegal_stat_polls"] = static_cast<double>(illegal_polls);

  if (opt.trace) {
    auto& L = res.layer;
    const double pubs = static_cast<double>(events);
    L["rpc.frames_out_per_publish"] =
        static_cast<double>(delta.frames_out) / pubs;
    L["rpc.events_pushed_per_publish"] =
        static_cast<double>(delta.events_pushed) / pubs;
    L["rpc.loop_wait_us_p50"] = quantile(loop_wait, 0.5);
    L["rpc.loop_wait_us_p99"] = quantile(loop_wait, 0.99);
    L["rpc.stabilize_rounds"] = static_cast<double>(delta.stabilize_rounds);
    L["rpc.stabilize_skipped"] = static_cast<double>(delta.stabilize_skipped);
    L["rpc.stat_rtt_ms"] = median(stat_ms);
    L["rpc.sustained_rate"] = sustained;
    // Coverage and self time of the served phases: summed over the
    // generator and churn threads, so a self share can exceed 1.
    double wall = 0.0, covered = 0.0;
    std::map<std::string, double> self_s;
    for (const auto& ses : sessions) {
      const auto lt = summarize_layers(tr, ses.from_ns, ses.to_ns);
      const double w = static_cast<double>(ses.to_ns - ses.from_ns) * 1e-9;
      wall += w;
      covered += lt.coverage * w;
      for (const auto& [layer, sec] : lt.self_s) self_s[layer] += sec;
    }
    L["obs.span_coverage"] = covered / wall;
    for (const auto& [layer, sec] : self_s) {
      if (layer != "bench") L[layer + ".self_share"] = sec / wall;
    }

    // The same filters and the first generator's stream, in process,
    // with the daemon's overlay configuration: RTT minus its publish
    // time is the transport's share.
    std::vector<std::size_t> publishers;
    std::vector<pt> points;
    for (std::size_t i = 0; i < 2048; ++i) {
      publishers.push_back(in.publisher[0][i]);
      points.push_back(in.points[0][i]);
    }
    tracer off(false);
    const auto t_off = clock_type::now();
    (void)inproc_twin_layers(daemon_config().backend, in.filters, publishers,
                             points, off);
    const double wall_off = seconds_between(t_off, clock_type::now());
    const auto t_on = clock_type::now();
    auto twin = inproc_twin_layers(daemon_config().backend, in.filters,
                                   publishers, points, tr);
    const double wall_on = seconds_between(t_on, clock_type::now());
    for (const auto& [name, v] : twin) {
      if (!L.count(name)) L[name] = v;
    }
    L["rpc.inproc_publish_us_p50"] = twin["drtree.scalar_us"];
    L["obs.trace_overhead"] = wall_on / wall_off;
    if (!opt.trace_out.empty() && !tr.write_chrome(opt.trace_out)) {
      res.fail("cannot write span file " + opt.trace_out);
    }
  }
  return res;
}

}  // namespace perfbench
