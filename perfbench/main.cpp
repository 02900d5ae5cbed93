// perfbench: runs one workload of the repo benchmark and prints one JSON
// object with everything it measured.  perfbench/run.py is the command
// users run; it builds this binary and turns the object into the report.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--trace-out FILE] [--p99-limit-us US]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\":", first ? "" : ",", name.c_str());
    print_number(v);
    first = false;
  }
  std::printf("}");
}

/// FNV-1a over the simulated counts, so two runs can be compared by eye.
std::uint64_t digest(const std::map<std::string, std::uint64_t>& counts) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [name, v] : counts) {
    mix(name.data(), name.size());
    mix(&v, sizeof(v));
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload scale_churn|publish_sparse|"
               "drtd_mixed --seed N --seconds S [--trace 0|1] "
               "[--trace-out FILE] [--p99-limit-us US]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--p99-limit-us") {
      opt.p99_limit_us = std::strtod(value, nullptr);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0) || !(opt.p99_limit_us > 0)) {
    return usage();
  }

  perfbench::result res;
  if (opt.workload == "scale_churn") {
    res = perfbench::run_scale_churn(opt);
  } else if (opt.workload == "publish_sparse") {
    res = perfbench::run_publish_sparse(opt);
  } else if (opt.workload == "drtd_mixed") {
    res = perfbench::run_drtd_mixed(opt);
  } else {
    return usage();
  }
  if (!res.e2e.count("peak_rss_mb")) {
    res.e2e["peak_rss_mb"] = perfbench::peak_rss_mb();
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%s,",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "true" : "false");
  print_map("e2e", res.e2e);
  std::printf(",");
  print_map("layer", res.layer);
  std::printf(",\"sim_counts\":{");
  bool first = true;
  for (const auto& [name, v] : res.sim_counts) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                static_cast<unsigned long long>(v));
    first = false;
  }
  std::printf("},\"digest\":\"%016llx\",\"failures\":[",
              static_cast<unsigned long long>(digest(res.sim_counts)));
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "",
                json_escape(res.failures[i]).c_str());
  }
  std::printf("],\"attempted\":%llu,\"failed\":%llu}\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  return 0;
}
