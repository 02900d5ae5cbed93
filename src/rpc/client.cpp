#include "rpc/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace drt::rpc {

namespace {

constexpr std::uint64_t kNoSubValue = static_cast<std::uint64_t>(-1);

}  // namespace

bool client::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  // A vanished daemon must surface as an error, not a hang: bound every
  // blocking read.  10 s dwarfs any legitimate localhost round-trip.
  struct timeval tv = {};
  tv.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  return true;
}

void client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  rbuf_.clear();
}

bool client::send_all(const std::byte* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const auto n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool client::roundtrip(frame_type request, const void* body,
                       std::size_t body_bytes, frame_type expect,
                       std::vector<std::byte>& payload) {
  if (!ok()) return false;
  const std::uint32_t seq = next_seq_++;
  sendbuf_.clear();
  put_frame_bytes(sendbuf_, request, seq, body, body_bytes);
  if (!send_all(sendbuf_.data(), sendbuf_.size())) {
    fail();
    return false;
  }

  std::byte buf[16384];
  // Frames are decoded at a read offset; the consumed prefix is dropped
  // once per recv (and before returning), not once per frame.
  std::size_t off = 0;
  const auto compact = [&] {
    rbuf_.erase(rbuf_.begin(),
                rbuf_.begin() + static_cast<std::ptrdiff_t>(off));
    off = 0;
  };
  for (;;) {
    // Drain every complete frame already buffered before reading more.
    for (;;) {
      frame_view frame;
      std::size_t consumed = 0;
      const auto status = try_decode(rbuf_.data() + off, rbuf_.size() - off,
                                     frame, consumed);
      if (status == decode_status::need_more) break;
      if (status != decode_status::ok) {
        fail();
        return false;
      }
      off += consumed;
      if (frame.type == frame_type::event_push) {
        event_push_body push;
        if (frame.read(push)) events_.push_back(push);
      } else if (frame.seq == seq && frame.type == expect) {
        payload.assign(frame.payload, frame.payload + frame.size);
        compact();
        return true;
      } else if (frame.seq == seq && frame.type == frame_type::error) {
        error_body err;
        last_error_ = frame.read(err) ? err.code : 0;
        compact();
        return false;
      }
      // Anything else (a stale reply after a timeout) is dropped.
    }
    compact();

    const auto n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    fail();  // EOF, timeout, or hard error
    return false;
  }
}

std::uint64_t client::subscribe(const spatial::box& filter) {
  subscribe_body body;
  body.filter = filter;
  std::vector<std::byte> payload;
  if (!roundtrip(frame_type::subscribe, &body, sizeof(body),
                 frame_type::subscribe_ok, payload) ||
      payload.size() != sizeof(sub_body)) {
    return kNoSubValue;
  }
  sub_body reply;
  std::memcpy(&reply, payload.data(), sizeof(reply));
  return reply.sub;
}

bool client::unsubscribe(std::uint64_t sub) {
  sub_body body;
  body.sub = sub;
  std::vector<std::byte> payload;
  if (!roundtrip(frame_type::unsubscribe, &body, sizeof(body),
                 frame_type::unsubscribe_ok, payload) ||
      payload.size() != sizeof(bool_body)) {
    return false;
  }
  bool_body reply;
  std::memcpy(&reply, payload.data(), sizeof(reply));
  return reply.value != 0;
}

bool client::alive(std::uint64_t sub) {
  sub_body body;
  body.sub = sub;
  std::vector<std::byte> payload;
  if (!roundtrip(frame_type::alive, &body, sizeof(body),
                 frame_type::alive_ok, payload) ||
      payload.size() != sizeof(bool_body)) {
    return false;
  }
  bool_body reply;
  std::memcpy(&reply, payload.data(), sizeof(reply));
  return reply.value != 0;
}

bool client::ping() {
  std::vector<std::byte> payload;
  return roundtrip(frame_type::ping, nullptr, 0, frame_type::pong, payload);
}

report_body client::publish(std::uint64_t publisher,
                            const spatial::pt& value) {
  publish_body body;
  body.publisher = publisher;
  body.value = value;
  std::vector<std::byte> payload;
  report_body reply;
  if (roundtrip(frame_type::publish, &body, sizeof(body),
                frame_type::publish_report, payload) &&
      payload.size() == sizeof(report_body)) {
    std::memcpy(&reply, payload.data(), sizeof(reply));
  }
  return reply;
}

report_body client::publish_batch(std::uint64_t publisher,
                                  const spatial::pt* values, std::size_t n) {
  report_body total;
  std::size_t done = 0;
  bool all_ok = n > 0;
  while (done < n) {
    const auto k =
        std::min<std::size_t>(overlay::dr_batch_msg::kMaxEvents, n - done);
    overlay::dr_batch_msg batch;
    batch.count = static_cast<std::uint32_t>(k);
    for (std::size_t i = 0; i < k; ++i) {
      batch.events[i].id = 0;  // the daemon's overlay allocates ids
      batch.events[i].publisher = static_cast<spatial::peer_id>(publisher);
      batch.events[i].value = values[done + i];
    }
    std::vector<std::byte> payload;
    report_body reply;
    if (!roundtrip(frame_type::publish_batch, &batch,
                   overlay::dr_batch_msg::bytes_for(k),
                   frame_type::publish_report, payload) ||
        payload.size() != sizeof(report_body)) {
      all_ok = false;
      break;
    }
    std::memcpy(&reply, payload.data(), sizeof(reply));
    if (reply.ok == 0) all_ok = false;
    total.interested += reply.interested;
    total.delivered += reply.delivered;
    total.false_positives += reply.false_positives;
    total.false_negatives += reply.false_negatives;
    total.messages += reply.messages;
    total.max_hops = std::max(total.max_hops, reply.max_hops);
    done += k;
  }
  total.ok = all_ok ? 1 : 0;
  return total;
}

stat_body client::stat() {
  std::vector<std::byte> payload;
  stat_body reply;
  if (roundtrip(frame_type::stat, nullptr, 0, frame_type::stat_ok,
                payload) &&
      payload.size() == sizeof(stat_body)) {
    std::memcpy(&reply, payload.data(), sizeof(reply));
  } else {
    reply.root = kNoSubValue;
  }
  return reply;
}

std::vector<std::uint64_t> client::active() {
  std::vector<std::uint64_t> ids;
  std::uint32_t offset = 0;
  for (;;) {
    active_req_body body;
    body.offset = offset;
    std::vector<std::byte> payload;
    if (!roundtrip(frame_type::active, &body, sizeof(body),
                   frame_type::active_ok, payload)) {
      break;
    }
    frame_view view;
    view.type = frame_type::active_ok;
    view.payload = payload.data();
    view.size = static_cast<std::uint32_t>(payload.size());
    active_ok_body page;
    if (!read_active_page(view, page)) {
      fail();
      break;
    }
    for (std::uint32_t i = 0; i < page.count; ++i) {
      ids.push_back(page.ids[i]);
    }
    offset += page.count;
    if (page.count == 0 || offset >= page.total) break;
  }
  return ids;
}

std::string client::stats_text() {
  std::string text;
  std::uint32_t offset = 0;
  for (;;) {
    stats_req_body body;
    body.offset = offset;
    std::vector<std::byte> payload;
    if (!roundtrip(frame_type::stats, &body, sizeof(body),
                   frame_type::stats_ok, payload)) {
      break;
    }
    frame_view view;
    view.type = frame_type::stats_ok;
    view.payload = payload.data();
    view.size = static_cast<std::uint32_t>(payload.size());
    stats_text_body page;
    if (!read_stats_page(view, page)) {
      fail();
      break;
    }
    text.append(page.text, page.count);
    offset += page.count;
    if (page.count == 0 || offset >= page.total) break;
  }
  return text;
}

}  // namespace drt::rpc
