// drtd — the DR-tree daemon (DESIGN.md §10): hosts one overlay behind a
// localhost TCP listener and serves the rpc/wire.h protocol until
// SIGINT/SIGTERM.
//
//   drtd [--port=N] [--stabilize-ms=N] [--seed=N] [--trace=MODE] [--poll]
//
//   --port=N          listen port on 127.0.0.1 (default 7450; 0 = ephemeral)
//   --stabilize-ms=N  wall-clock stabilizer cadence (default 250; 0 = off);
//                     the hosted overlay schedules its passes in
//                     stabilize_mode::dirty, which the banner names
//   --seed=N          hosted overlay's simulator seed (default 1)
//   --trace=MODE      flight recorder: off (default), ring, or full
//   --poll            run the event loop on poll(2) instead of epoll
//
// While serving, `GET /metrics` on the same port (plain HTTP) or a STATS
// wire frame returns the live Prometheus exposition (DESIGN.md §12).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "rpc/service.h"

namespace {

drt::rpc::service* g_service = nullptr;

void on_signal(int) {
  // service::stop() is async-signal-safe: an atomic store plus a
  // self-pipe write.
  if (g_service != nullptr) g_service->stop();
}

bool parse_u32(const char* arg, const char* flag, std::uint32_t* out) {
  const auto n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = static_cast<std::uint32_t>(std::strtoul(arg + n + 1, nullptr, 10));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  drt::rpc::service_config config;
  config.port = 7450;
  config.stabilize_every_ms = 250;
  std::uint32_t value = 0;
  for (int i = 1; i < argc; ++i) {
    if (parse_u32(argv[i], "--port", &value)) {
      config.port = static_cast<std::uint16_t>(value);
    } else if (parse_u32(argv[i], "--stabilize-ms", &value)) {
      config.stabilize_every_ms = value;
    } else if (parse_u32(argv[i], "--seed", &value)) {
      config.backend.net.seed = value;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      const char* mode = argv[i] + 8;
      if (std::strcmp(mode, "off") == 0) {
        config.backend.dr.trace = drt::obs::trace_mode::off;
      } else if (std::strcmp(mode, "ring") == 0) {
        config.backend.dr.trace = drt::obs::trace_mode::ring;
      } else if (std::strcmp(mode, "full") == 0) {
        config.backend.dr.trace = drt::obs::trace_mode::full;
      } else {
        std::fprintf(stderr, "drtd: unknown trace mode '%s'\n", mode);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--poll") == 0) {
      config.force_poll = true;
    } else {
      std::fprintf(stderr,
                   "usage: drtd [--port=N] [--stabilize-ms=N] [--seed=N] "
                   "[--trace=off|ring|full] [--poll]\n");
      return 2;
    }
  }

  drt::rpc::service service(config);
  g_service = &service;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("drtd listening on 127.0.0.1:%u (stabilize %u ms %s, "
              "trace %s, %s)\n",
              service.port(), config.stabilize_every_ms,
              drt::overlay::to_string(config.backend.dr.stabilize),
              drt::obs::to_string(config.backend.dr.trace),
              config.force_poll ? "poll" : "epoll");
  std::fflush(stdout);

  service.run();

  const auto& s = service.stats();
  std::printf(
      "drtd exiting: %llu conns (%llu closed), %llu frames in, "
      "%llu out, %llu events pushed, %llu protocol errors, "
      "%llu disconnect unsubscribes, %llu stabilize rounds\n",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.connections_closed),
      static_cast<unsigned long long>(s.frames_in),
      static_cast<unsigned long long>(s.frames_out),
      static_cast<unsigned long long>(s.events_pushed),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.disconnect_unsubscribes),
      static_cast<unsigned long long>(s.stabilize_rounds));
  return 0;
}
