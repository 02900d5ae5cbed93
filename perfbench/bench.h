// Shared pieces of the repo benchmark: run options, the result record
// every workload fills, the span recorder behind the traced run, and
// small statistics helpers.
//
// Spans are recorded only by this benchmark's own code, around its calls
// into the library's public functions; nothing inside src/ is timed from
// within.  A span carries its name, the layer it is charged to, start
// and end (steady_clock ns since the run began), its parent span and the
// id of the operation it belongs to.
#ifndef DRT_PERFBENCH_BENCH_H
#define DRT_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/backends.h"
#include "spatial/types.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path ("" = none)
  /// drtd_mixed: the p99 publish latency the sustained rate must meet.
  double p99_limit_us = 50000;
};

/// What one workload run reports.  Metrics that do not apply to a
/// workload are left out of the maps (run.py reports them as n/a or 0).
struct result {
  std::map<std::string, double> e2e;    ///< end-to-end (untraced)
  std::map<std::string, double> layer;  ///< per-layer (traced run only)
  /// Simulated counts: deterministic for a given seed.  Their digest is
  /// printed so two runs can be compared.
  std::map<std::string, std::uint64_t> sim_counts;
  std::vector<std::string> failures;  ///< output checks that failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every interested subscription received every event it matched.
  bool delivered_ok = true;

  void fail(std::string what) { failures.push_back(std::move(what)); }
};

// ------------------------------------------------------------------ spans

struct span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's log
  std::uint64_t op = 0;
};

/// One thread's spans, in begin order.  Not thread-safe: every thread
/// that records owns its own log (see tracer::thread_log).
class span_log {
 public:
  explicit span_log(std::uint32_t tid) : tid_(tid) {}
  std::int32_t begin(const char* name, const char* layer, std::uint64_t op);
  void end(std::int32_t index);
  const std::vector<span>& spans() const { return spans_; }
  std::uint32_t tid() const { return tid_; }

 private:
  std::uint32_t tid_;
  std::vector<span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

/// All span logs of a run.  Disabled (the untraced run) it hands out
/// null logs, and scoped_span on a null log does nothing.
class tracer {
 public:
  explicit tracer(bool enabled);
  bool enabled() const { return enabled_; }
  /// A new log for the calling thread (nullptr when disabled).  The
  /// tracer keeps ownership; logs live until the tracer dies.
  span_log* thread_log();
  std::int64_t now_ns() const;

  /// Every span of the run, for the statistics below.
  std::vector<std::pair<std::uint32_t, span>> all() const;
  /// Write every span as Chrome trace-event JSON (the format obs exports
  /// for Perfetto): one "X" event per span, tid = recording thread.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  clock_type::time_point t0_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<span_log>> logs_;
};

class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, const char* layer,
              std::uint64_t op = 0)
      : log_(log), index_(log ? log->begin(name, layer, op) : -1) {}
  ~scoped_span() {
    if (log_ != nullptr) log_->end(index_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log* log_;
  std::int32_t index_;
};

/// Per-layer totals over the spans recorded inside [from_ns, to_ns).
struct layer_times {
  /// Layer -> self time in seconds: each span's duration minus the part
  /// of it its child spans cover.
  std::map<std::string, double> self_s;
  /// Share of [from_ns, to_ns) covered by top-level layer spans: spans
  /// not charged to the benchmark itself (layer "bench") whose parent is
  /// a benchmark span or none, merged across threads.
  double coverage = 0.0;
};
layer_times summarize_layers(const tracer& t, std::int64_t from_ns,
                             std::int64_t to_ns);

/// Durations in microseconds of every span with this name.
std::vector<double> span_durations_us(const tracer& t, const char* name);

// ------------------------------------------------------------- statistics

/// Quantile by linear interpolation between order statistics (the
/// `statistics.quantiles(..., method="inclusive")` rule); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

inline double seconds_between(clock_type::time_point a,
                              clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Encode and decode cost of the wire frames a workload's own
/// publications travel in (rpc::wire put_frame / try_decode on one
/// publish frame per point), in ns per frame.
struct codec_cost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  bool ok = false;  ///< every frame decoded back to what was encoded
};
codec_cost measure_codec(const std::vector<drt::spatial::pt>& points);

// -------------------------------------------------------------- workloads

result run_scale_churn(const options& opt);
result run_publish_sparse(const options& opt);
result run_drtd_mixed(const options& opt);

/// drtd_mixed's in-process twin: the same filters and scalar publish
/// stream (publishers index into `filters`) on a plain drtree_backend
/// with `cfg`, traced into `tr`.  Returns that episode's layer metrics.
std::map<std::string, double> inproc_twin_layers(
    const drt::engine::overlay_backend_config& cfg,
    const std::vector<drt::spatial::box>& filters,
    const std::vector<std::size_t>& publishers,
    const std::vector<drt::spatial::pt>& events, tracer& tr);

}  // namespace perfbench

#endif  // DRT_PERFBENCH_BENCH_H
