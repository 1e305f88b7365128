#include "runtime/socket_net.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "lb/work.hpp"
#include "support/check.hpp"
#include "trace/export.hpp"

namespace olb::runtime {
namespace {

constexpr std::chrono::milliseconds kReconnectBase{50};
constexpr std::chrono::milliseconds kReconnectCap{2000};
constexpr int kMaxEpollEvents = 32;
// A rank that is computing polls its sockets at most this often. One
// non-blocking poll (pump_io(0): an epoll_wait plus two clock reads) takes
// 240–300 ns on a 4-core Xeon VM, a sixth to a third of a 32-node B&B
// chunk at 28–47 ns a node; at one poll per 20 µs it costs at most ~1.5 %
// of compute, and a request waits at most 20 µs plus one chunk longer.
constexpr std::chrono::microseconds kComputePollInterval{20};

bool split_host_port(const std::string& addr, std::string* host, std::string* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return false;
  }
  *host = addr.substr(0, colon);
  *port = addr.substr(colon + 1);
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  OLB_CHECK(flags >= 0);
  OLB_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

SocketNet::SocketNet(Options options, const WorkCodec* codec)
    : options_(std::move(options)), codec_(codec) {
  time_is_free_ = false;  // now() is a real clock read here
  if (!options_.trace_path.empty()) {
    tracer_ = std::make_unique<trace::VectorTracer>();
  }
}

SocketNet::~SocketNet() { shutdown(); }

void SocketNet::set_actor(std::unique_ptr<sim::Actor> actor) {
  OLB_CHECK_MSG(!host_.has_value(), "SocketNet hosts exactly one actor");
  OLB_CHECK(options_.rank >= 0);
  host_.emplace(std::move(actor), *this, options_.rank, options_.seed);
}

sim::Time SocketNet::transport_now() const {
  if (!started_clock_) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

// ---------------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------------

void SocketNet::transport_send(sim::Actor& from, int dst, sim::Message m) {
  (void)from;  // one actor per process
  // Traced before the enqueue, so this process's stream orders every send
  // ahead of any later local event — the causal order the merge in
  // src/check relies on. The per-sender id keeps ids unique across ranks,
  // so the merged trace's conservation oracle never sees two flights under
  // one id.
  host_->count_send(m, dst);
  if (dst == options_.rank) {
    if (tracer_ != nullptr) [[unlikely]] m.arrived_at = transport_now();
    inbox_.push_back(std::move(m));
    return;
  }
  WireWriter body;
  encode_message(m, codec_, body);
  queue_frame(dst, FrameType::kMsg, body);
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

void SocketNet::setup_listener() {
  std::string host, port;
  OLB_CHECK_MSG(split_host_port(options_.peers[static_cast<std::size_t>(options_.rank)],
                                &host, &port),
                "peer address must be host:port");
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  OLB_CHECK_MSG(::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) == 0,
                "cannot resolve own listen address");
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 128) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  OLB_CHECK_MSG(fd >= 0, "cannot bind/listen on own peer address");
  set_nonblocking(fd);
  listen_fd_ = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  OLB_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
}

WireWriter SocketNet::make_hello() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(options_.rank));
  w.u64(options_.config_digest);
  return w;
}

void SocketNet::start_connect(int rank) {
  PeerLink& link = links_[static_cast<std::size_t>(rank)];
  link.retry_pending = false;
  std::string host, port;
  OLB_CHECK_MSG(split_host_port(options_.peers[static_cast<std::size_t>(rank)],
                                &host, &port),
                "peer address must be host:port");
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0) {
    schedule_reconnect(rank);
    return;
  }
  int fd = -1;
  bool in_progress = false;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    set_nonblocking(fd);
    set_nodelay(fd);
    const int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc == 0) {
      in_progress = false;
      break;
    }
    if (errno == EINPROGRESS) {
      in_progress = true;
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    schedule_reconnect(rank);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = rank;  // outbound connections know their peer up front
  conn->outbound = true;
  conn->connecting = in_progress;
  Conn* raw = conn.get();
  conns_[fd] = std::move(conn);
  link.conn = raw;
  link.front_sent = 0;
  // The HELLO must be the first frame on the wire; anything already queued
  // for this rank (bootstrap races, reconnects) stays behind it.
  link.sendq.push_front(make_frame(FrameType::kHello, make_hello()));
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  OLB_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
  if (!in_progress) {
    link.attempts = 0;
    try_flush_link(rank);
  }
}

void SocketNet::schedule_reconnect(int rank) {
  PeerLink& link = links_[static_cast<std::size_t>(rank)];
  link.attempts = std::min(link.attempts + 1, 16);
  auto delay = kReconnectBase * (1 << std::min(link.attempts - 1, 5));
  delay = std::min<std::chrono::milliseconds>(delay, kReconnectCap);
  link.retry_at = std::chrono::steady_clock::now() + delay;
  link.retry_pending = true;
}

void SocketNet::adopt_connection(Conn* conn, int rank) {
  PeerLink& link = links_[static_cast<std::size_t>(rank)];
  if (link.conn == conn) {
    // Duplicate HELLO on the connection we already use. Resetting
    // front_sent here would re-send the already-written prefix of a
    // partially flushed frame and corrupt the byte stream — leave the
    // cursor alone.
    link.attempts = 0;
    link.retry_pending = false;
    try_flush_link(rank);
    return;
  }
  if (link.conn != nullptr) {
    // A stale connection for this rank (e.g. superseded by a reconnect).
    close_connection(link.conn);
  }
  conn->peer = rank;
  link.conn = conn;
  // New byte stream: any partially written frame on the old connection
  // must be retransmitted whole from offset 0.
  link.front_sent = 0;
  link.attempts = 0;
  link.retry_pending = false;
  try_flush_link(rank);
}

void SocketNet::close_connection(Conn* conn) {
  const int fd = conn->fd;
  const int peer = conn->peer;
  const bool outbound = conn->outbound;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  if (peer >= 0 && links_[static_cast<std::size_t>(peer)].conn == conn) {
    PeerLink& link = links_[static_cast<std::size_t>(peer)];
    link.conn = nullptr;
    // The front frame may have been partially written to the dead socket;
    // retransmit it whole on the next connection. (A frame that was fully
    // written but not yet processed by the peer is lost — the real-world
    // face of the FaultPlan's message-drop knob; see DESIGN.md.)
    link.front_sent = 0;
    if (outbound && !shutdown_done_) schedule_reconnect(peer);
  }
  conns_.erase(fd);  // frees the Conn
}

void SocketNet::update_epoll(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (conn->connecting) {
    ev.events |= EPOLLOUT;
  } else if (conn->peer >= 0 &&
             !links_[static_cast<std::size_t>(conn->peer)].sendq.empty()) {
    ev.events |= EPOLLOUT;
  }
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void SocketNet::accept_pending() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    OLB_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
    conns_[fd] = std::move(conn);
  }
}

void SocketNet::try_flush_link(int rank) {
  PeerLink& link = links_[static_cast<std::size_t>(rank)];
  Conn* conn = link.conn;
  if (conn == nullptr || conn->connecting) return;
  while (!link.sendq.empty()) {
    const std::vector<std::uint8_t>& front = link.sendq.front();
    while (link.front_sent < front.size()) {
      const ssize_t k =
          ::send(conn->fd, front.data() + link.front_sent,
                 front.size() - link.front_sent, MSG_NOSIGNAL);
      if (k > 0) {
        link.front_sent += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;  // interrupted: just retry
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        update_epoll(conn);
        return;
      }
      close_connection(conn);
      return;
    }
    link.sendq.pop_front();
    link.front_sent = 0;
  }
  update_epoll(conn);  // queue drained: EPOLLOUT off
}

void SocketNet::handle_writable(Conn* conn) {
  if (conn->connecting) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close_connection(conn);  // schedules the backoff retry
      return;
    }
    conn->connecting = false;
    if (conn->peer >= 0) links_[static_cast<std::size_t>(conn->peer)].attempts = 0;
  }
  if (conn->peer >= 0) try_flush_link(conn->peer);
}

void SocketNet::handle_readable(Conn* conn) {
  // Drain the socket into the connection's reassembly buffer.
  char buf[64 * 1024];
  while (true) {
    const ssize_t k = ::recv(conn->fd, buf, sizeof buf, 0);
    if (k > 0) {
      conn->in.insert(conn->in.end(), buf, buf + k);
      if (static_cast<std::size_t>(k) < sizeof buf) break;
      continue;
    }
    if (k < 0 && errno == EINTR) continue;  // interrupted: just retry
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(conn);  // EOF (k == 0) or hard error
    return;
  }
  // Parse every complete frame. A malformed header from an identified peer
  // is a fatal protocol error: both ends run the same codec version, so
  // garbage means memory corruption or a foreign client.
  std::size_t off = 0;
  while (true) {
    FrameType type;
    std::uint32_t body_len = 0;
    const ParseStatus st = parse_frame_header(conn->in.data() + off,
                                              conn->in.size() - off, &type,
                                              &body_len);
    if (st == ParseStatus::kNeedMore) break;
    OLB_CHECK_MSG(st == ParseStatus::kOk, "garbage frame header from peer");
    if (conn->in.size() - off < kFrameHeaderSize + body_len) break;
    handle_frame(conn, type, conn->in.data() + off + kFrameHeaderSize, body_len);
    off += kFrameHeaderSize + body_len;
  }
  if (off > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

void SocketNet::queue_frame(int rank, FrameType type, const WireWriter& body) {
  OLB_CHECK(rank >= 0 && rank < transport_num_peers() && rank != options_.rank);
  PeerLink& link = links_[static_cast<std::size_t>(rank)];
  link.sendq.push_back(make_frame(type, body));
  try_flush_link(rank);
}

WireWriter SocketNet::make_config() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(options_.peers.size()));
  w.u64(options_.seed);
  w.u64(options_.config_digest);
  for (const std::string& addr : options_.peers) w.str(addr);
  w.u32(static_cast<std::uint32_t>(options_.overlay_parent.size()));
  for (int parent : options_.overlay_parent) w.i32(parent);
  return w;
}

void SocketNet::handle_config(WireReader& r) {
  const std::uint32_t n = r.u32();
  const std::uint64_t seed = r.u64();
  const std::uint64_t digest = r.u64();
  OLB_CHECK_MSG(n == options_.peers.size(),
                "bootstrap config: cluster size mismatch");
  OLB_CHECK_MSG(seed == options_.seed, "bootstrap config: seed mismatch");
  OLB_CHECK_MSG(digest == options_.config_digest,
                "bootstrap config: run configuration mismatch across ranks");
  for (std::uint32_t i = 0; i < n; ++i) {
    OLB_CHECK_MSG(r.str() == options_.peers[i],
                  "bootstrap config: peer address table mismatch");
  }
  const std::uint32_t parents = r.u32();
  OLB_CHECK_MSG(parents == options_.overlay_parent.size(),
                "bootstrap config: overlay shape mismatch");
  for (std::uint32_t i = 0; i < parents; ++i) {
    OLB_CHECK_MSG(r.i32() == options_.overlay_parent[i],
                  "bootstrap config: overlay shape mismatch");
  }
  OLB_CHECK_MSG(r.exhausted(), "bootstrap config: malformed frame");
  config_ok_ = true;
}

void SocketNet::handle_app_message(WireReader& r) {
  sim::Message m;
  const bool ok = decode_message(r, codec_, &m) && r.exhausted();
  OLB_CHECK_MSG(ok, "malformed application message frame from peer");
  // Only a traced delivery reads the stamp (its inbox wait); before the
  // start barrier the clock reads 0.
  if (tracer_ != nullptr) [[unlikely]] m.arrived_at = transport_now();
  if (!accept_app_msgs_) {
    // A straggler racing the termination wave. Work may never be lost, but
    // the message itself is still delivered to the (terminated, hence
    // inert) actor rather than dropped: a late membership request — e.g. a
    // kJoinReq that reached rank 0 after its run ended — needs the
    // terminated actor's kTerminate echo, or the sender hangs until its
    // wall limit. Replies flow out through the result-exchange pumps.
    OLB_CHECK_MSG(
        dynamic_cast<const lb::WorkPayload*>(m.payload.get()) == nullptr,
        "undelivered work transfer after termination");
    host_->deliver(std::move(m));
    return;
  }
  inbox_.push_back(std::move(m));
}

void SocketNet::handle_frame(Conn* conn, FrameType type,
                             const std::uint8_t* body, std::size_t len) {
  WireReader r(body, len);
  switch (type) {
    case FrameType::kHello: {
      const auto rank = static_cast<int>(r.u32());
      const std::uint64_t digest = r.u64();
      OLB_CHECK_MSG(r.exhausted(), "malformed hello frame");
      OLB_CHECK_MSG(rank >= 0 && rank < transport_num_peers() &&
                        rank != options_.rank,
                    "hello from an out-of-range rank");
      OLB_CHECK_MSG(digest == options_.config_digest,
                    "peer launched with a different run configuration");
      adopt_connection(conn, rank);
      ++hellos_;
      return;
    }
    case FrameType::kConfig:
      handle_config(r);
      return;
    case FrameType::kReady: {
      const auto rank = static_cast<int>(r.u32());
      OLB_CHECK_MSG(r.exhausted() && rank > 0 && rank < transport_num_peers(),
                    "malformed ready frame");
      ++readys_;
      return;
    }
    case FrameType::kStart:
      OLB_CHECK_MSG(len == 0, "malformed start frame");
      if (!started_clock_) {
        started_clock_ = true;
        start_ = std::chrono::steady_clock::now();
      }
      start_seen_ = true;
      return;
    case FrameType::kMsg:
      handle_app_message(r);
      return;
    case FrameType::kResult: {
      const auto rank = static_cast<int>(r.u32());
      std::vector<std::uint8_t> blob = r.blob();
      OLB_CHECK_MSG(r.exhausted() && options_.rank == 0 && rank > 0 &&
                        rank < transport_num_peers(),
                    "malformed result frame");
      result_blobs_[static_cast<std::size_t>(rank)] = std::move(blob);
      result_seen_[static_cast<std::size_t>(rank)] = true;
      return;
    }
    case FrameType::kSummary: {
      const std::uint32_t n = r.u32();
      OLB_CHECK_MSG(n == options_.peers.size(), "malformed summary frame");
      for (std::uint32_t i = 0; i < n; ++i) {
        result_blobs_[i] = r.blob();
      }
      OLB_CHECK_MSG(r.exhausted(), "malformed summary frame");
      summary_seen_ = true;
      return;
    }
  }
  OLB_CHECK_MSG(false, "unknown frame type from peer");
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

bool SocketNet::sendqs_empty() const {
  for (const PeerLink& link : links_) {
    if (!link.sendq.empty()) return false;
  }
  return true;
}

bool SocketNet::pump_io(std::chrono::steady_clock::duration wait) {
  // Opportunistic flush: adoption/backlog may have armed queues since the
  // last round.
  for (int rank = 0; rank < transport_num_peers(); ++rank) {
    if (!links_[static_cast<std::size_t>(rank)].sendq.empty()) {
      try_flush_link(rank);
    }
  }
  // Cap the wait at the earliest pending reconnect.
  const auto now = std::chrono::steady_clock::now();
  auto until = now + wait;
  for (const PeerLink& link : links_) {
    if (link.retry_pending) until = std::min(until, link.retry_at);
  }
  int timeout_ms = 0;
  if (until > now) {
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - now);
    timeout_ms = static_cast<int>(std::max<std::int64_t>(ms.count(), 1));
  }

  epoll_event events[kMaxEpollEvents];
  const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == listen_fd_) {
      accept_pending();
      continue;
    }
    // Look the fd up fresh: an earlier event in this batch may have closed
    // it (the map erase makes stale events harmless).
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 && !conn->connecting) {
      close_connection(conn);
      continue;
    }
    if ((events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      handle_writable(conn);
      if (conns_.find(fd) == conns_.end()) continue;  // closed while writing
    }
    if ((events[i].events & EPOLLIN) != 0) handle_readable(conn);
  }
  // Fire due reconnects.
  const auto after = std::chrono::steady_clock::now();
  for (int rank = 0; rank < transport_num_peers(); ++rank) {
    PeerLink& link = links_[static_cast<std::size_t>(rank)];
    if (link.retry_pending && link.conn == nullptr && after >= link.retry_at) {
      start_connect(rank);
    }
  }
  return n > 0;
}

void SocketNet::pump_until(const std::function<bool()>& done,
                           std::chrono::steady_clock::time_point deadline,
                           const char* what) {
  while (!done()) {
    OLB_CHECK_MSG(std::chrono::steady_clock::now() < deadline, what);
    pump_io(std::chrono::milliseconds(10));
  }
}

void SocketNet::flush_sends(std::chrono::steady_clock::time_point deadline,
                            const char* what) {
  pump_until([this] { return sendqs_empty(); }, deadline, what);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void SocketNet::start() {
  OLB_CHECK_MSG(host_.has_value(), "set_actor() before start()");
  const int n = transport_num_peers();
  OLB_CHECK(options_.rank >= 0 && options_.rank < n);
  links_.resize(static_cast<std::size_t>(n));
  result_blobs_.resize(static_cast<std::size_t>(n));
  result_seen_.assign(static_cast<std::size_t>(n), false);
  epoll_fd_ = ::epoll_create1(0);
  OLB_CHECK(epoll_fd_ >= 0);
  setup_listener();
  for (int r = 0; r < options_.rank; ++r) start_connect(r);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(options_.bootstrap_timeout);
  if (options_.rank == 0) {
    pump_until([&] { return hellos_ >= n - 1; }, deadline,
               "bootstrap timeout waiting for peer hellos");
    const WireWriter config = make_config();
    for (int r = 1; r < n; ++r) queue_frame(r, FrameType::kConfig, config);
    pump_until([&] { return readys_ >= n - 1; }, deadline,
               "bootstrap timeout waiting for peer readys");
    // The start barrier: stamp the epoch, then release everyone. Peer
    // epochs trail this one by a one-way send latency.
    started_clock_ = true;
    start_ = std::chrono::steady_clock::now();
    const WireWriter empty;
    for (int r = 1; r < n; ++r) queue_frame(r, FrameType::kStart, empty);
    flush_sends(deadline, "bootstrap timeout flushing start barrier");
  } else {
    pump_until([&] { return config_ok_; }, deadline,
               "bootstrap timeout waiting for config from rank 0");
    WireWriter ready;
    ready.u32(static_cast<std::uint32_t>(options_.rank));
    queue_frame(0, FrameType::kReady, ready);
    pump_until([&] { return start_seen_; }, deadline,
               "bootstrap timeout waiting for the start barrier");
  }
}

RunResult SocketNet::run(const ExitPredicate& exit_when, sim::Time wall_limit) {
  OLB_CHECK_MSG(started_clock_, "start() before run()");
  OLB_CHECK(wall_limit > 0);
  const auto deadline = start_ + std::chrono::nanoseconds(wall_limit);
  Host& host = *host_;
  host.start();

  RunResult result;
  std::vector<sim::Message> batch;
  auto last_poll = std::chrono::steady_clock::time_point{};
  while (true) {
    if (exit_when(host.actor())) {
      result.completed = true;
      break;
    }
    // Self-sends made while the batch is delivered wait for the next pass.
    batch.swap(inbox_);
    bool progress = host.step(batch);
    if (host.computing()) {
      // While computing, go straight on to the next chunk unless the last
      // poll is kComputePollInterval old.
      const auto now = std::chrono::steady_clock::now();
      if (now - last_poll < kComputePollInterval) continue;
      last_poll = now;
    }
    pump_io(std::chrono::steady_clock::duration::zero());
    if (!inbox_.empty()) progress = true;
    if (progress) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;  // watchdog; completed stays false
    // Idle: block in epoll until traffic, the next timer, or the safety poll.
    const sim::Time wake_at =
        std::min(host.next_timer(), transport_now() + sim::milliseconds(10));
    const auto until =
        std::min(start_ + std::chrono::nanoseconds(wake_at), deadline);
    if (until > now) pump_io(until - now);
  }
  // The termination fan-out (and any trailing control chatter) must reach
  // the other processes before the result exchange.
  if (result.completed) {
    flush_sends(std::chrono::steady_clock::now() +
                    std::chrono::nanoseconds(options_.bootstrap_timeout),
                "timeout flushing outbound queues after termination");
  }
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start_)
          .count();
  return result;
}

std::vector<std::vector<std::uint8_t>> SocketNet::exchange_results(
    std::vector<std::uint8_t> mine) {
  accept_app_msgs_ = false;
  // Messages still queued locally raced the termination wave; none may
  // carry work (same sweep as the other backends' leftover check), but —
  // like late arrivals in handle_app_message — they are delivered to the
  // terminated actor, not dropped, so membership stragglers get their
  // kTerminate echoes.
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    sim::Message m = std::move(inbox_[i]);  // delivering may append self-sends
    OLB_CHECK_MSG(
        dynamic_cast<const lb::WorkPayload*>(m.payload.get()) == nullptr,
        "undelivered work transfer after termination");
    host_->deliver(std::move(m));
  }
  inbox_.clear();

  const int n = transport_num_peers();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(options_.bootstrap_timeout);
  if (options_.rank == 0) {
    result_blobs_[0] = std::move(mine);
    result_seen_[0] = true;
    pump_until(
        [&] {
          for (int r = 0; r < n; ++r) {
            if (!result_seen_[static_cast<std::size_t>(r)]) return false;
          }
          return true;
        },
        deadline, "timeout collecting peer results");
    WireWriter summary;
    summary.u32(static_cast<std::uint32_t>(n));
    for (const auto& blob : result_blobs_) summary.blob(blob);
    for (int r = 1; r < n; ++r) queue_frame(r, FrameType::kSummary, summary);
    flush_sends(deadline, "timeout broadcasting the result summary");
  } else {
    WireWriter result;
    result.u32(static_cast<std::uint32_t>(options_.rank));
    result.blob(mine);
    queue_frame(0, FrameType::kResult, result);
    pump_until([&] { return summary_seen_; }, deadline,
               "timeout waiting for the result summary");
    result_blobs_[static_cast<std::size_t>(options_.rank)] = std::move(mine);
  }
  return result_blobs_;
}

void SocketNet::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  if (epoll_fd_ >= 0) {
    // Best-effort drain of whatever is still queued (a crashed run's peers
    // may be gone; never block shutdown on them).
    const auto grace = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(200);
    while (!sendqs_empty() && std::chrono::steady_clock::now() < grace) {
      pump_io(std::chrono::milliseconds(5));
    }
  }
  if (tracer_ != nullptr) {
    std::ofstream os(options_.trace_path, std::ios::binary);
    if (os) trace::write_ndjson(os, tracer_->events());
  }
  std::vector<Conn*> open;
  open.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) open.push_back(conn.get());
  for (Conn* conn : open) close_connection(conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

}  // namespace olb::runtime
