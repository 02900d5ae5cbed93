// Span recorder, Chrome trace export, and the statistics helpers shared
// by the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "rpc/wire.h"

namespace perfbench {

std::int32_t span_log::begin(const char* name, const char* layer,
                             std::uint64_t op) {
  span s;
  s.name = name;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.start_ns = clock_type::now().time_since_epoch().count();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  return index;
}

void span_log::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      clock_type::now().time_since_epoch().count();
  open_.pop_back();
}

tracer::tracer(bool enabled) : enabled_(enabled), t0_(clock_type::now()) {}

span_log* tracer::thread_log() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(
      std::make_unique<span_log>(static_cast<std::uint32_t>(logs_.size())));
  return logs_.back().get();
}

std::int64_t tracer::now_ns() const {
  return clock_type::now().time_since_epoch().count();
}

std::vector<std::pair<std::uint32_t, span>> tracer::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint32_t, span>> out;
  for (const auto& log : logs_) {
    for (const auto& s : log->spans()) out.emplace_back(log->tid(), s);
  }
  return out;
}

bool tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = t0_.time_since_epoch().count();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& [tid, s] : all()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"op\":%llu,\"parent\":%d}}",
                 first ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns - base) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, tid,
                 static_cast<unsigned long long>(s.op), s.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {
bool is_bench(const span& s) { return std::string_view(s.layer) == "bench"; }
}  // namespace

layer_times summarize_layers(const tracer& t, std::int64_t from_ns,
                             std::int64_t to_ns) {
  layer_times out;
  std::vector<std::pair<std::int64_t, std::int64_t>> top;
  // Self time: children of one span are sequential on its thread (the
  // log is a stack), so the part they cover is the sum of their lengths.
  std::vector<std::pair<std::uint32_t, span>> spans = t.all();
  std::map<std::pair<std::uint32_t, std::int32_t>, std::int64_t> child_ns;
  std::map<std::uint32_t, std::int32_t> next_index;
  std::vector<std::int32_t> index_of(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of[i] = next_index[spans[i].first]++;
  }
  for (const auto& [tid, s] : spans) {
    if (s.parent >= 0) child_ns[{tid, s.parent}] += s.end_ns - s.start_ns;
  }
  std::map<std::uint32_t, std::vector<const span*>> by_thread;
  for (const auto& [tid, s] : spans) by_thread[tid].push_back(&s);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& [tid, s] = spans[i];
    if (s.start_ns < from_ns || s.end_ns > to_ns) continue;
    const auto it = child_ns.find({tid, index_of[i]});
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    out.self_s[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    if (is_bench(s)) continue;
    const bool top_level =
        s.parent < 0 ||
        is_bench(*by_thread[tid][static_cast<std::size_t>(s.parent)]);
    if (top_level) {
      top.emplace_back(std::max(s.start_ns, from_ns),
                       std::min(s.end_ns, to_ns));
    }
  }
  std::sort(top.begin(), top.end());
  std::int64_t covered = 0;
  std::int64_t reach = from_ns;
  for (const auto& [a, b] : top) {
    const std::int64_t lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  out.coverage = to_ns > from_ns ? static_cast<double>(covered) /
                                       static_cast<double>(to_ns - from_ns)
                                 : 0.0;
  return out;
}

std::vector<double> span_durations_us(const tracer& t, const char* name) {
  std::vector<double> out;
  for (const auto& [tid, s] : t.all()) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

codec_cost measure_codec(const std::vector<drt::spatial::pt>& points) {
  namespace rpc = drt::rpc;
  codec_cost out;
  if (points.empty()) return out;
  std::vector<std::byte> buf;
  buf.reserve(points.size() * (sizeof(rpc::frame_header) +
                               sizeof(rpc::publish_body)));
  auto t0 = clock_type::now();
  std::uint32_t seq = 1;
  for (const auto& p : points) {
    rpc::publish_body body;
    body.publisher = seq;
    body.value = p;
    rpc::put_frame(buf, rpc::frame_type::publish, seq++, body);
  }
  auto t1 = clock_type::now();
  std::size_t off = 0;
  std::uint32_t expect = 1;
  while (off < buf.size()) {
    rpc::frame_view view;
    std::size_t used = 0;
    rpc::publish_body body;
    if (rpc::try_decode(buf.data() + off, buf.size() - off, view, used) !=
            rpc::decode_status::ok ||
        !view.read(body) || view.seq != expect ||
        body.publisher != expect) {
      break;
    }
    off += used;
    ++expect;
  }
  auto t2 = clock_type::now();
  const auto n = static_cast<double>(points.size());
  out.encode_ns = us_between(t0, t1) * 1000.0 / n;
  out.decode_ns = us_between(t1, t2) * 1000.0 / n;
  out.ok = off == buf.size();
  return out;
}

}  // namespace perfbench
