#include "rpc/service.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>

#include "drtree/checker.h"
#include "obs/metrics.h"
#include "util/expect.h"

namespace drt::rpc {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DRT_ENSURE(flags >= 0);
  DRT_ENSURE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

service::service(service_config config)
    : config_(config), loop_({config.force_poll}), be_(config.backend) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DRT_ENSURE(listen_fd_ >= 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  DRT_ENSURE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0);
  DRT_ENSURE(::listen(listen_fd_, 64) == 0);
  set_nonblocking(listen_fd_);

  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  DRT_ENSURE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                           &len) == 0);
  port_ = ntohs(bound.sin_port);
}

service::~service() {
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void service::run() {
  loop_.watch(listen_fd_, event_loop::kReadable,
              [this](std::uint32_t) { on_accept(); });
  timer_id stabilizer = kNoTimer;
  if (config_.stabilize_every_ms > 0) {
    stabilizer = loop_.every(config_.stabilize_every_ms, [this] {
      // Backlog-aware cadence: with dirty-mode stabilization a period
      // with no marked instances runs no round — except every
      // sweep_stride-th tick, which runs unconditionally so the
      // background sweep keeps moving.  The sweep needs K rounds, so on
      // an idle daemon silent corruption is found within K * K ticks
      // (DESIGN.md §11); client operations advance the overlay's clock
      // too and shorten that.  Full mode keeps the legacy
      // round-every-period behavior.
      const auto& ov = be_.overlay();
      const bool dirty_mode =
          ov.config().stabilize == overlay::stabilize_mode::dirty;
      ++stabilize_tick_;
      const auto stride =
          std::max<std::size_t>(std::size_t{1}, ov.config().sweep_stride);
      if (dirty_mode && ov.dirty_pending() == 0 &&
          stabilize_tick_ % stride != 0) {
        ++stats_.stabilize_skipped;
        return;
      }
      be_.step_round();
      ++stats_.stabilize_rounds;
    });
  }

  serving_.store(true, std::memory_order_release);
  loop_.run();
  serving_.store(false, std::memory_order_release);

  // Shutdown: drop connections without churning the overlay — the
  // daemon is going away, a storm of controlled leaves helps nobody.
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    loop_.unwatch(fd);
    ::close(fd);
    ++stats_.connections_closed;
  }
  conns_.clear();
  owners_.clear();
  if (stabilizer != kNoTimer) loop_.cancel(stabilizer);
  loop_.unwatch(listen_fd_);
}

void service::on_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: nothing to admit now
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    auto& conn = conns_[fd];
    conn.fd = fd;
    ++stats_.connections_accepted;
    loop_.watch(fd, event_loop::kReadable,
                [this, fd](std::uint32_t events) { on_conn_event(fd, events); });
  }
}

void service::on_conn_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;

  if ((events & event_loop::kReadable) != 0) {
    bool eof = false;
    std::byte buf[16384];
    for (;;) {
      const auto n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        it->second.rbuf.insert(it->second.rbuf.end(), buf, buf + n);
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof = true;  // hard socket error: treat as disappearance
      break;
    }
    drain_frames(it->second);
    // One send() per connection for everything this event produced: the
    // replies on this connection and the pushes a publish fanned out.
    flush_unflushed();
    if (conns_.find(fd) == conns_.end()) return;  // connection was reaped
    if (eof) {
      close_connection(fd);
      return;
    }
  }

  if ((events & event_loop::kWritable) != 0) {
    auto again = conns_.find(fd);
    if (again != conns_.end()) {
      flush(again->second);
      if (again->second.dead) close_connection(fd);
    }
  }
}

void service::drain_frames(connection& conn) {
  // A binary frame opens with kMagic ("DRT1"); a plaintext "GET " prefix
  // is an HTTP scrape of /metrics.  Sniff before try_decode — bad magic
  // would otherwise kill the connection.
  if (!conn.http && !conn.dead && conn.rbuf.size() >= 4 &&
      std::memcmp(conn.rbuf.data(), "GET ", 4) == 0) {
    conn.http = true;
  }
  if (conn.http) {
    if (!conn.dead) handle_http(conn);
    reap();
    return;
  }
  std::size_t off = 0;
  while (!conn.dead) {
    frame_view frame;
    std::size_t consumed = 0;
    const auto status = try_decode(conn.rbuf.data() + off,
                                   conn.rbuf.size() - off, frame, consumed);
    if (status == decode_status::need_more) break;
    if (status != decode_status::ok) {
      // Desynchronized or foreign stream — there is no resync point in
      // a length-prefixed protocol, so the connection is over.
      ++stats_.protocol_errors;
      conn.dead = true;
      break;
    }
    ++stats_.frames_in;
    handle_frame(conn, frame);
    off += consumed;
    if (conn.wbuf.size() > config_.max_write_buffer) {
      flush(conn);  // replies are deferred; give the socket its chance
      if (conn.wbuf.size() > config_.max_write_buffer) {
        ++stats_.protocol_errors;  // dead-slow consumer
        conn.dead = true;
      }
    }
  }
  if (off > 0) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  reap();
}

void service::handle_frame(connection& conn, const frame_view& frame) {
  switch (frame.type) {
    case frame_type::ping:
      send_bytes(conn, frame_type::pong, frame.seq, nullptr, 0);
      return;
    case frame_type::subscribe:
      handle_subscribe(conn, frame);
      return;
    case frame_type::unsubscribe:
      handle_unsubscribe(conn, frame);
      return;
    case frame_type::alive: {
      sub_body body;
      if (!frame.read(body)) {
        send_error(conn, frame.seq, wire_errc::bad_request);
        return;
      }
      bool_body reply;
      reply.value = be_.alive(body.sub) ? 1 : 0;
      send_bytes(conn, frame_type::alive_ok, frame.seq, &reply,
                 sizeof(reply));
      return;
    }
    case frame_type::publish:
      handle_publish(conn, frame);
      return;
    case frame_type::publish_batch:
      handle_publish_batch(conn, frame);
      return;
    case frame_type::stat:
      handle_stat(conn, frame);
      return;
    case frame_type::active:
      handle_active(conn, frame);
      return;
    case frame_type::stats:
      handle_stats(conn, frame);
      return;
    case frame_type::overlay_msg:
    case frame_type::overlay_batch:
      // Reserved peer-wire channel: framed fine, not served by a hosted
      // overlay (peers are in-process here, not remote).
      send_error(conn, frame.seq, wire_errc::unsupported);
      return;
    default:
      send_error(conn, frame.seq, wire_errc::unsupported);
      return;
  }
}

void service::handle_subscribe(connection& conn, const frame_view& frame) {
  subscribe_body body;
  if (!frame.read(body)) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  const auto sub = be_.subscribe(body.filter);
  if (sub == engine::kNoSub) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  owners_[sub] = conn.fd;
  conn.subs.push_back(sub);
  sub_body reply;
  reply.sub = sub;
  send_bytes(conn, frame_type::subscribe_ok, frame.seq, &reply,
             sizeof(reply));
}

void service::handle_unsubscribe(connection& conn, const frame_view& frame) {
  sub_body body;
  if (!frame.read(body)) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  bool_body reply;
  auto owner = owners_.find(body.sub);
  if (owner != owners_.end() && owner->second == conn.fd &&
      be_.unsubscribe(body.sub)) {
    owners_.erase(owner);
    auto& subs = conn.subs;
    subs.erase(std::remove(subs.begin(), subs.end(), body.sub), subs.end());
    reply.value = 1;
  }
  send_bytes(conn, frame_type::unsubscribe_ok, frame.seq, &reply,
             sizeof(reply));
}

void service::handle_publish(connection& conn, const frame_view& frame) {
  publish_body body;
  if (!frame.read(body)) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  report_body reply;
  auto owner = owners_.find(body.publisher);
  if (owner == owners_.end() || owner->second != conn.fd ||
      !be_.alive(body.publisher)) {
    send_bytes(conn, frame_type::publish_report, frame.seq, &reply,
               sizeof(reply));  // ok = 0
    return;
  }
  const auto result = be_.overlay().publish_and_drain(
      static_cast<spatial::peer_id>(body.publisher), body.value);
  push_deliveries(result, body.publisher, body.value);
  reply.interested = result.interested;
  reply.delivered = result.delivered;
  reply.false_positives = result.false_positives;
  reply.false_negatives = result.false_negatives;
  reply.messages = result.messages;
  reply.max_hops = static_cast<std::uint32_t>(result.max_hops);
  reply.ok = 1;
  send_bytes(conn, frame_type::publish_report, frame.seq, &reply,
             sizeof(reply));
}

void service::handle_publish_batch(connection& conn, const frame_view& frame) {
  overlay::dr_batch_msg batch;
  if (!read_batch(frame, batch) || batch.count == 0) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  const std::uint64_t publisher = batch.events[0].publisher;
  report_body reply;
  auto owner = owners_.find(publisher);
  if (owner == owners_.end() || owner->second != conn.fd ||
      !be_.alive(publisher)) {
    send_bytes(conn, frame_type::publish_report, frame.seq, &reply,
               sizeof(reply));  // ok = 0
    return;
  }
  spatial::pt values[overlay::dr_batch_msg::kMaxEvents];
  for (std::uint32_t i = 0; i < batch.count; ++i) {
    values[i] = batch.events[i].value;
  }
  const auto results = be_.overlay().multi_publish_and_drain(
      static_cast<spatial::peer_id>(publisher), values, batch.count);
  for (std::size_t i = 0; i < results.size(); ++i) {
    push_deliveries(results[i], publisher, values[i]);
    reply.interested += results[i].interested;
    reply.delivered += results[i].delivered;
    reply.false_positives += results[i].false_positives;
    reply.false_negatives += results[i].false_negatives;
    reply.messages += results[i].messages;
    reply.max_hops = std::max(
        reply.max_hops, static_cast<std::uint32_t>(results[i].max_hops));
  }
  reply.ok = 1;
  send_bytes(conn, frame_type::publish_report, frame.seq, &reply,
             sizeof(reply));
}

void service::handle_stat(connection& conn, const frame_view& frame) {
  // One checker pass answers legality and shape together, so the RPC
  // reads exactly what drtree_backend::shape()/legal() would compute.
  const auto report = overlay::checker(be_.overlay()).check();
  stat_body reply;
  reply.population = be_.population();
  reply.height = report.height;
  reply.max_degree = report.max_interior_children;
  reply.routing_state = report.memory_links;
  reply.messages = be_.counters().messages;
  reply.root = be_.root();
  reply.avg_degree = report.avg_interior_children;
  reply.legal = report.legal() ? 1 : 0;
  send_bytes(conn, frame_type::stat_ok, frame.seq, &reply, sizeof(reply));
}

void service::handle_active(connection& conn, const frame_view& frame) {
  active_req_body body;
  if (!frame.read(body)) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  const auto all = be_.active();
  active_ok_body reply;
  reply.total = all.size();
  reply.offset = body.offset;
  const std::size_t start = std::min<std::size_t>(body.offset, all.size());
  const std::size_t n =
      std::min(active_ok_body::kMaxIds, all.size() - start);
  for (std::size_t i = 0; i < n; ++i) reply.ids[i] = all[start + i];
  reply.count = static_cast<std::uint32_t>(n);
  send_bytes(conn, frame_type::active_ok, frame.seq, &reply,
             active_ok_body::bytes_for(n));
}

void service::handle_stats(connection& conn, const frame_view& frame) {
  stats_req_body body;
  if (!frame.read(body)) {
    send_error(conn, frame.seq, wire_errc::bad_request);
    return;
  }
  if (body.offset == 0 || conn.stats_cache.empty()) {
    conn.stats_cache = build_exposition();
  }
  stats_text_body reply;
  reply.total = conn.stats_cache.size();
  reply.offset = body.offset;
  const std::size_t start =
      std::min<std::size_t>(body.offset, conn.stats_cache.size());
  const std::size_t n =
      std::min(stats_text_body::kMaxBytes, conn.stats_cache.size() - start);
  std::memcpy(reply.text, conn.stats_cache.data() + start, n);
  reply.count = static_cast<std::uint32_t>(n);
  send_bytes(conn, frame_type::stats_ok, frame.seq, &reply,
             stats_text_body::bytes_for(n));
}

std::string service::build_exposition() {
  obs::registry reg;
  reg.counter("drtd_connections_accepted_total") = stats_.connections_accepted;
  reg.counter("drtd_connections_closed_total") = stats_.connections_closed;
  reg.counter("drtd_frames_in_total") = stats_.frames_in;
  reg.counter("drtd_frames_out_total") = stats_.frames_out;
  reg.counter("drtd_events_pushed_total") = stats_.events_pushed;
  reg.counter("drtd_protocol_errors_total") = stats_.protocol_errors;
  reg.counter("drtd_disconnect_unsubscribes_total") =
      stats_.disconnect_unsubscribes;
  reg.counter("drtd_stabilize_rounds_total") = stats_.stabilize_rounds;
  reg.counter("drtd_stabilize_skipped_total") = stats_.stabilize_skipped;
  reg.counter("drtd_socket_writes_total") = stats_.socket_writes;
  reg.counter("drtd_overlay_messages_total") = be_.counters().messages;
  if (const auto* t = be_.trace()) {
    reg.counter("drtd_trace_records_total") = t->emitted();
  }
  const auto shape = be_.shape();
  reg.gauge("drtd_overlay_population") =
      static_cast<double>(shape.population);
  reg.gauge("drtd_overlay_height") = static_cast<double>(shape.height);
  reg.gauge("drtd_overlay_max_degree") =
      static_cast<double>(shape.max_degree);
  reg.gauge("drtd_overlay_avg_degree") = shape.avg_degree;
  reg.gauge("drtd_overlay_routing_state") =
      static_cast<double>(shape.routing_state);
  reg.gauge("drtd_overlay_dirty_pending") =
      static_cast<double>(be_.overlay().dirty_pending());
  return reg.expose();
}

void service::handle_http(connection& conn) {
  static constexpr std::size_t kMaxHttpRequest = 8192;
  const auto* data = reinterpret_cast<const char*>(conn.rbuf.data());
  const std::string_view req(data, conn.rbuf.size());
  const auto end = req.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (conn.rbuf.size() > kMaxHttpRequest) {
      ++stats_.protocol_errors;
      conn.dead = true;
    }
    return;  // headers still arriving
  }
  // Request line: "GET <path> HTTP/1.x".
  const auto line_end = req.find("\r\n");
  std::string_view path;
  const auto first_sp = req.find(' ');
  if (first_sp != std::string_view::npos && first_sp < line_end) {
    const auto second_sp = req.find(' ', first_sp + 1);
    if (second_sp != std::string_view::npos && second_sp < line_end) {
      path = req.substr(first_sp + 1, second_sp - first_sp - 1);
    }
  }
  conn.rbuf.erase(conn.rbuf.begin(),
                  conn.rbuf.begin() + static_cast<std::ptrdiff_t>(end + 4));

  std::string response;
  if (path == "/metrics") {
    const auto body = build_exposition();
    response = "HTTP/1.0 200 OK\r\n"
               "Content-Type: text/plain; version=0.0.4\r\n"
               "Content-Length: " + std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
  } else {
    response = "HTTP/1.0 404 Not Found\r\n"
               "Content-Length: 0\r\nConnection: close\r\n\r\n";
  }
  const auto* bytes = reinterpret_cast<const std::byte*>(response.data());
  conn.wbuf.insert(conn.wbuf.end(), bytes, bytes + response.size());
  conn.close_when_drained = true;
  flush(conn);
}

void service::run_on_loop(std::function<void()> fn) {
  if (!serving_.load(std::memory_order_acquire)) {
    fn();  // loop idle: the calling thread owns the state
    return;
  }
  struct waiter {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
  };
  auto w = std::make_shared<waiter>();
  loop_.post([w, fn = std::move(fn)] {
    {
      std::lock_guard<std::mutex> lk(w->m);
      if (w->abandoned) return;  // caller gave up; fn's captures are gone
    }
    fn();
    std::lock_guard<std::mutex> lk(w->m);
    w->done = true;
    w->cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(w->m);
  while (!w->done) {
    if (w->cv.wait_for(lk, std::chrono::milliseconds(50)) ==
            std::cv_status::timeout &&
        !serving_.load(std::memory_order_acquire)) {
      // The loop exited without draining the task.  Abandon it (the flag
      // keeps a late drain from touching fn's dead captures) and return
      // without running fn — callers detect the skip and read the
      // now-idle state directly.
      w->abandoned = true;
      return;
    }
  }
}

service::counters service::stats_snapshot() {
  counters out{};
  bool filled = false;
  run_on_loop([this, &out, &filled] {
    out = stats_;
    filled = true;
  });
  if (!filled) out = stats_;  // abandoned-task fallback: loop is idle now
  return out;
}

std::string service::metrics_text() {
  std::string out;
  bool filled = false;
  run_on_loop([this, &out, &filled] {
    out = build_exposition();
    filled = true;
  });
  if (!filled) out = build_exposition();
  return out;
}

void service::push_deliveries(const overlay::publish_result& result,
                              std::uint64_t publisher,
                              const spatial::pt& value) {
  for (const auto receiver : result.receivers) {
    auto owner = owners_.find(receiver);
    if (owner == owners_.end()) continue;
    auto cit = conns_.find(owner->second);
    if (cit == conns_.end() || cit->second.dead) continue;
    event_push_body push;
    push.sub = receiver;
    push.ev.id = result.event_id;
    push.ev.publisher = static_cast<spatial::peer_id>(publisher);
    push.ev.value = value;
    push.max_hops = static_cast<std::uint32_t>(result.max_hops);
    send_bytes(cit->second, frame_type::event_push, 0, &push, sizeof(push));
    ++stats_.events_pushed;
  }
}

void service::send_bytes(connection& conn, frame_type type,
                         std::uint32_t seq, const void* body,
                         std::size_t body_bytes) {
  if (conn.dead) return;
  scratch_.clear();
  put_frame_bytes(scratch_, type, seq, body, body_bytes);
  conn.wbuf.insert(conn.wbuf.end(), scratch_.begin(), scratch_.end());
  ++stats_.frames_out;
  if (!conn.unflushed) {
    conn.unflushed = true;
    unflushed_.push_back(conn.fd);
  }
}

void service::send_error(connection& conn, std::uint32_t seq,
                         wire_errc code) {
  error_body body;
  body.code = static_cast<std::uint32_t>(code);
  send_bytes(conn, frame_type::error, seq, &body, sizeof(body));
}

void service::flush(connection& conn) {
  conn.unflushed = false;
  std::size_t off = 0;
  while (off < conn.wbuf.size()) {
    ++stats_.socket_writes;
    const auto n = ::send(conn.fd, conn.wbuf.data() + off,
                          conn.wbuf.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;  // hard error (EPIPE, ECONNRESET): reaped next
    break;
  }
  if (off > 0) {
    conn.wbuf.erase(conn.wbuf.begin(),
                    conn.wbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  if (conn.close_when_drained && conn.wbuf.empty()) conn.dead = true;
  const bool want_write = !conn.wbuf.empty();
  if (!conn.dead && want_write != conn.want_write) {
    conn.want_write = want_write;
    loop_.set_interest(conn.fd,
                       event_loop::kReadable |
                           (want_write ? event_loop::kWritable : 0));
  }
}

void service::flush_unflushed() {
  bool died = false;
  for (const int fd : unflushed_) {
    auto it = conns_.find(fd);
    if (it == conns_.end() || !it->second.unflushed) continue;
    flush(it->second);
    died = died || it->second.dead;
  }
  unflushed_.clear();
  if (died) reap();
}

void service::reap() {
  scratch_fds_.clear();
  for (const auto& [fd, conn] : conns_) {
    if (conn.dead) scratch_fds_.push_back(fd);
  }
  for (const int fd : scratch_fds_) close_connection(fd);
}

void service::close_connection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // The churn primitive: whatever this connection owned leaves the
  // overlay through the controlled-departure path, join traffic settles
  // before the next frame from anyone is processed.
  for (const auto sub : it->second.subs) {
    if (be_.unsubscribe(sub)) ++stats_.disconnect_unsubscribes;
    owners_.erase(sub);
  }
  loop_.unwatch(fd);
  ::close(fd);
  conns_.erase(it);
  ++stats_.connections_closed;
}

}  // namespace drt::rpc
