#include "runtime/transport_socket.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace pmpl::runtime {

namespace {

double steady_seconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Largest payload the codec can legally produce; a length prefix beyond
/// this is a protocol violation, not a big frame.
constexpr std::size_t kMaxPayload = 64 + 4ull * kMaxFrameItems;

/// A dial retries with a nap that doubles from the first value up to the
/// second.
constexpr double kConnectBackoffInitialS = 5e-4;
constexpr double kConnectBackoffMaxS = 0.25;
/// How long one send polls for writability before it counts as dropped.
constexpr double kSendTimeoutS = 2.0;
/// Re-dials per connect-side peer over the transport's life.
constexpr std::uint32_t kReconnectBudget = 3;

int make_socket() {
  return socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

// Clock readings ride the unused b/c scalars of kHello frames, bit-cast
// so no precision is lost on the wire.
std::uint64_t pack_time(double t) noexcept {
  std::uint64_t v;
  std::memcpy(&v, &t, sizeof v);
  return v;
}
double unpack_time(std::uint64_t v) noexcept {
  double t;
  std::memcpy(&t, &v, sizeof t);
  return t;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      peers_(config_.size),
      peer_gen_(config_.size, 0),
      faults_(config_.faults),
      clock_offset_(config_.size, 0.0),
      clock_known_(config_.size, 0) {
  epoch_steady_s_ = config_.epoch_steady_s > 0.0 ? config_.epoch_steady_s
                                                 : steady_seconds();
  for (auto& p : peers_) p.redials_left = kReconnectBudget;
  if (config_.tracer)
    trace_ = config_.tracer->track(
        config_.track_name.empty()
            ? "transport rank " + std::to_string(config_.rank)
            : config_.track_name,
        config_.trace_capacity);
}

SocketTransport::~SocketTransport() { close(); }

double SocketTransport::now() const {
  return steady_seconds() - epoch_steady_s_;
}

std::string SocketTransport::sock_path(std::uint32_t r) const {
  return config_.dir + "/r" + std::to_string(r) + ".sock";
}

void SocketTransport::trace_instant(const char* name, std::uint64_t arg) {
  if (trace_) trace_->instant_at(name, now(), arg);
}

bool SocketTransport::start(std::string* error) {
  // Bind and listen first so peers that start earlier can already queue
  // their connect in our backlog while we are still dialing.
  listen_fd_ = make_socket();
  if (listen_fd_ < 0) {
    if (error) *error = "socket(): " + std::string(std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = sock_path(config_.rank);
  if (path.size() >= sizeof addr.sun_path) {
    if (error) *error = "socket path too long: " + path;
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, static_cast<int>(config_.size) + 1) != 0) {
    if (error)
      *error = "bind/listen " + path + ": " + std::strerror(errno);
    return false;
  }
  set_nonblocking(listen_fd_);

  // A restarted incarnation announces itself at startup: rank_restart on
  // the transport track (arg = generation) so traces show the resurrection.
  if (config_.generation > 0) trace_instant("rank_restart", config_.generation);

  bool all_ok = true;
  std::string first_err;
  const std::uint32_t dial_upto =
      config_.dial_all ? config_.size : config_.rank;
  // A rejoiner (dial_all) gets a fast per-peer budget: a live peer's
  // listener accepts instantly (it never closes while the peer runs), so
  // a connect that needs longer than this is a dead peer — and spending
  // the full connect budget on each corpse serializes into minutes when
  // the rejoiner revives into a mesh that already finished and exited
  // (the supervisor's watchdog is the only thing that would end that).
  // A peer that binds late (e.g. a sibling replacement mid-fork) is
  // recovered by the send-path redial, which rejoiners may aim at anyone.
  const double per_peer_budget =
      config_.dial_all ? std::min(config_.connect_timeout_s, 0.25)
                       : config_.connect_timeout_s;
  for (std::uint32_t peer = 0; peer < dial_upto; ++peer) {
    if (peer == config_.rank) continue;
    if (!dial(peer, per_peer_budget)) {
      // When dialing everyone (a rejoin), an unreachable peer is not a
      // startup failure — it may simply be dead, which the protocol layer
      // already survives.
      if (config_.dial_all) continue;
      all_ok = false;
      if (first_err.empty())
        first_err = "rank " + std::to_string(config_.rank) +
                    ": peer " + std::to_string(peer) +
                    " unreachable after " +
                    std::to_string(config_.connect_timeout_s) + "s";
    }
  }

  // Accept until every higher rank has introduced itself (or the budget
  // runs out — a rank that died during startup shows up as missing here
  // and as dead to the heartbeat detector later). Rejoiners dialed those
  // peers above, so any still-unconnected one is dead: skip the wait.
  const double deadline =
      now() + (config_.dial_all ? 0.0 : config_.accept_timeout_s);
  auto missing = [&] {
    for (std::uint32_t r = config_.rank + 1; r < config_.size; ++r)
      if (peers_[r].fd < 0) return true;
    return false;
  };
  while (missing() && now() < deadline) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    std::vector<pollfd> set{pfd};
    for (const Peer& u : unidentified_)
      set.push_back({u.fd, POLLIN, 0});
    const double wait = std::min(0.05, deadline - now());
    poll(set.data(), set.size(),
         std::max(1, static_cast<int>(wait * 1e3)));
    accept_new();
    identify_pending();
  }
  if (missing() && !config_.dial_all) {
    all_ok = false;
    if (first_err.empty()) {
      // Appended piecewise: `"..." + std::string` draws a false -Wrestrict
      // from GCC 12 at -O3.
      first_err = "rank ";
      first_err += std::to_string(config_.rank);
      first_err += ": higher ranks never connected:";
      for (std::uint32_t r = config_.rank + 1; r < config_.size; ++r)
        if (peers_[r].fd < 0) first_err += " " + std::to_string(r);
    }
  }
  if (!all_ok && error) *error = first_err;
  return all_ok;
}

bool SocketTransport::dial(std::uint32_t peer, double budget_s) {
  const double deadline = now() + budget_s;
  double backoff = kConnectBackoffInitialS;
  const std::string path = sock_path(peer);
  for (;;) {
    const int fd = make_socket();
    if (fd >= 0) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        // Introduce ourselves before anything else travels. The hello
        // carries our generation — the peer refuses it if it has already
        // heard from a newer incarnation of this rank — and our clock
        // reading (b): the peer echoes it in its hello reply alongside its
        // own reading, giving us an RTT-midpoint clock-offset estimate
        // that is refreshed by every reconnect handshake.
        Frame hello;
        hello.type = FrameType::kHello;
        hello.from = config_.rank;
        hello.to = peer;
        hello.gen = config_.generation;
        hello.a = config_.generation;
        hello.b = pack_time(now());
        std::vector<std::uint8_t> wire;
        encode_frame(hello, wire);
        std::size_t off = 0;
        while (off < wire.size()) {
          // MSG_NOSIGNAL: a peer dying mid-handshake must surface as
          // EPIPE, not kill this process with SIGPIPE.
          const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                                   MSG_NOSIGNAL);
          if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          break;
        }
        if (off == wire.size()) {
          set_nonblocking(fd);
          adopt_fd(peer, fd, /*count_reconnect=*/false);
          return true;
        }
      }
      ::close(fd);
    }
    if (now() >= deadline) return false;
    ++metrics_.connect_retries;
    timespec ts;
    const double nap = std::min(backoff, std::max(0.0, deadline - now()));
    ts.tv_sec = static_cast<time_t>(nap);
    ts.tv_nsec = static_cast<long>((nap - static_cast<double>(ts.tv_sec)) *
                                   1e9);
    nanosleep(&ts, nullptr);
    backoff = std::min(backoff * 2.0, kConnectBackoffMaxS);
  }
}

void SocketTransport::adopt_fd(std::uint32_t peer, int fd,
                               bool count_reconnect) {
  // Salvage anything the displaced connection already delivered before
  // closing it — same rule as the EOF path in pump(): delivered bytes are
  // readable until the fd is closed, and may carry a death notice or
  // completion this rank must not miss.
  pump(peer);
  drop_connection(peer);
  peers_[peer].fd = fd;
  if (count_reconnect) {
    ++metrics_.reconnects;
    trace_instant("reconnect", peer);
  }
}

void SocketTransport::drop_connection(std::uint32_t peer) {
  Peer& p = peers_[peer];
  if (p.fd >= 0) ::close(p.fd);
  p.fd = -1;
  p.inbuf.clear();
}

bool SocketTransport::send(std::uint32_t to, const Frame& f) {
  if (to >= config_.size || to == config_.rank) return false;
  // Stamp the wire trace id: each physical transmission gets a fresh seq
  // (a retransmitted grant is a new arrow), and (from, gen, seq) pairs the
  // receiver's frame_recv with this exact frame_send across process trace
  // files.
  Frame stamped = f;
  stamped.seq = ++send_seq_;
  std::vector<std::uint8_t> wire;
  encode_frame(stamped, wire);
  const double deadline = now() + kSendTimeoutS;
  bool redialed = false;
  for (;;) {
    Peer& p = peers_[to];
    if (p.fd < 0) {
      // Accept-side peers (higher ranks) must re-dial us; connect-side
      // peers we may re-dial within the budget. Rejoiners may re-dial
      // anyone (their higher peers' budgets may be spent on the corpse).
      if ((to < config_.rank || config_.dial_all) && p.redials_left > 0 &&
          !redialed) {
        --p.redials_left;
        redialed = true;
        // Fast-fail budget: a live peer's listener accepts instantly (it
        // never closes), so a redial that needs longer than this is a
        // dead peer — and blocking here longer would silence our own
        // heartbeat acks enough to get *us* fenced.
        if (dial(to, 0.02)) {
          ++metrics_.reconnects;
          trace_instant("reconnect", to);
          continue;
        }
      }
      ++metrics_.frames_dropped;
      trace_instant("frame_drop", to);
      return false;
    }
    std::size_t off = 0;
    bool dead = false;
    while (off < wire.size()) {
      // MSG_NOSIGNAL: EPIPE instead of a process-killing SIGPIPE when the
      // peer is gone — dead peers are a state this transport must survive.
      const ssize_t n = ::send(p.fd, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno == EAGAIN) {
        const double wait = deadline - now();
        if (wait <= 0.0) {
          ++metrics_.send_timeouts;
          ++metrics_.frames_dropped;
          trace_instant("frame_drop", to);
          // A half-written frame would desync the stream: kill it — but
          // salvage delivered inbound frames first (see below).
          if (off > 0) {
            pump(to);
            drop_connection(to);
          }
          return false;
        }
        pollfd pfd{p.fd, POLLOUT, 0};
        poll(&pfd, 1, std::max(1, static_cast<int>(wait * 1e3)));
        continue;
      }
      dead = true;  // EPIPE / ECONNRESET / ...
      break;
    }
    if (!dead) {
      ++metrics_.frames_sent;
      metrics_.bytes_sent += wire.size();
      if (trace_) {
        const double t = now();
        const std::uint32_t corr =
            trace_corr(config_.rank, config_.generation, stamped.seq);
        trace_->instant_at("frame_send", t, to, corr);
        trace_->flow_start_at("frame", t, corr, to);
      }
      return true;
    }
    // The peer closed on us — but frames it wrote before exiting are
    // still sitting in our receive buffer, readable until the fd is
    // closed. Decode them before tearing down (mirroring the EOF path in
    // pump()): a resumed zombie whose first post-resume act is a send
    // would otherwise destroy the very death notice that must fence it.
    pump(to);
    drop_connection(to);
  }
}

void SocketTransport::accept_new() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    Peer p;
    p.fd = fd;
    unidentified_.push_back(std::move(p));
  }
}

void SocketTransport::identify_pending() {
  for (std::size_t i = 0; i < unidentified_.size();) {
    const int fd = unidentified_[i].fd;
    std::uint8_t buf[512];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      auto& inbuf = unidentified_[i].inbuf;
      inbuf.insert(inbuf.end(), buf, buf + n);
      if (inbuf.size() >= 4) {
        std::uint32_t len;
        std::memcpy(&len, inbuf.data(), 4);
        if (len <= kMaxPayload && inbuf.size() >= 4 + len) {
          Frame hello;
          if (decode_frame_payload(inbuf.data() + 4, len, hello) &&
              hello.type == FrameType::kHello && hello.from < config_.size &&
              hello.from != config_.rank) {
            if (hello.gen < peer_gen_[hello.from]) {
              // Stale incarnation (a resumed zombie re-dialing after its
              // replacement already introduced itself): refuse the
              // connection, but first tell it — best effort — that it
              // has been superseded so it can exit instead of spinning.
              ++metrics_.frames_stale;
              trace_instant("frame_drop", hello.from);
              Frame fence;
              fence.type = FrameType::kEpochFence;
              fence.from = config_.rank;
              fence.to = hello.from;
              fence.gen = config_.generation;
              fence.a = peer_gen_[hello.from];
              std::vector<std::uint8_t> wire;
              encode_frame(fence, wire);
              (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
              ::close(fd);
              unidentified_.erase(unidentified_.begin() +
                                  static_cast<std::ptrdiff_t>(i));
              continue;
            }
            peer_gen_[hello.from] =
                std::max(peer_gen_[hello.from], hello.gen);
            Peer moved = std::move(unidentified_[i]);
            moved.inbuf.erase(moved.inbuf.begin(),
                              moved.inbuf.begin() + 4 + len);
            unidentified_.erase(unidentified_.begin() +
                                static_cast<std::ptrdiff_t>(i));
            const std::uint32_t from = hello.from;
            const bool replacing = peers_[from].fd >= 0;
            drop_connection(from);
            peers_[from].fd = moved.fd;
            peers_[from].inbuf = std::move(moved.inbuf);
            if (replacing) {
              ++metrics_.reconnects;
              trace_instant("reconnect", from);
            }
            // Answer the handshake: our clock reading plus the dialer's
            // echoed back, closing its RTT-midpoint offset estimate.
            // Best effort and uncounted, like the hello itself — a lost
            // reply only costs the peer a clock sample.
            {
              Frame reply;
              reply.type = FrameType::kHello;
              reply.from = config_.rank;
              reply.to = from;
              reply.gen = config_.generation;
              reply.a = config_.generation;
              reply.b = pack_time(now());
              reply.c = hello.b;
              std::vector<std::uint8_t> wire;
              encode_frame(reply, wire);
              (void)::send(peers_[from].fd, wire.data(), wire.size(),
                           MSG_NOSIGNAL);
            }
            // Bytes that followed the hello in the same read are real
            // frames from this peer: decode them now.
            pump(from);
            continue;
          }
          // Garbled handshake: refuse the connection.
          ::close(fd);
          unidentified_.erase(unidentified_.begin() +
                              static_cast<std::ptrdiff_t>(i));
          continue;
        }
      }
    } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
      ::close(fd);
      unidentified_.erase(unidentified_.begin() +
                          static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

void SocketTransport::ingest(std::uint32_t peer, Frame frame) {
  const bool is_token = frame.type == FrameType::kToken;
  const double t = now();
  const auto fate =
      faults_.on_frame(peer, config_.rank, peers_[peer].recv_seq++, t,
                       is_token);
  if (fate.dropped) {
    ++metrics_.frames_dropped;
    trace_instant("frame_drop", peer);
    return;
  }
  if (fate.extra_delay_s > 0.0) {
    ++metrics_.frames_delayed;
    delayed_.push({t + fate.extra_delay_s, delay_seq_++, std::move(frame)});
    return;
  }
  ready_.push_back(std::move(frame));
}

bool SocketTransport::pump(std::uint32_t peer) {
  Peer& p = peers_[peer];
  if (p.fd < 0) return false;
  std::uint8_t buf[16384];
  bool dead = false;
  for (;;) {
    const ssize_t n = ::read(p.fd, buf, sizeof buf);
    if (n > 0) {
      p.inbuf.insert(p.inbuf.end(), buf, buf + n);
      metrics_.bytes_received += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) break;
    // EOF or hard error: the peer is gone — but frames already buffered
    // are still decoded below (a SIGKILLed sender's last writes are
    // readable), so the connection is torn down only afterwards.
    dead = true;
    break;
  }
  // Extract complete frames.
  std::size_t at = 0;
  auto& inbuf = p.inbuf;
  while (inbuf.size() - at >= 4) {
    std::uint32_t len;
    std::memcpy(&len, inbuf.data() + at, 4);
    if (len > kMaxPayload) {
      // Stream desync or hostile peer: abandon the connection.
      ++metrics_.frames_dropped;
      trace_instant("frame_drop", peer);
      drop_connection(peer);
      return false;
    }
    if (inbuf.size() - at < 4ull + len) break;
    Frame frame;
    if (!decode_frame_payload(inbuf.data() + at + 4, len, frame)) {
      ++metrics_.frames_dropped;
      trace_instant("frame_drop", peer);
      drop_connection(peer);
      return false;
    }
    at += 4ull + len;
    if (frame.type == FrameType::kHello) {  // handshake traffic
      peer_gen_[peer] = std::max(peer_gen_[peer], frame.gen);
      if (frame.c != 0) {
        // Hello reply: b is the peer's clock reading, c our own echoed
        // back — the three timestamps of one NTP-style round trip.
        const double offset = estimate_clock_offset(
            unpack_time(frame.c), unpack_time(frame.b), now());
        clock_offset_[peer] = offset;
        clock_known_[peer] = 1;
        trace_instant("clock_sync", peer);
      }
      continue;
    }
    ++metrics_.frames_received;
    if (trace_) {
      const double t = now();
      const std::uint32_t corr =
          frame.seq != 0 ? trace_corr(frame.from, frame.gen, frame.seq) : 0;
      trace_->instant_at("frame_recv", t, peer, corr);
      if (corr != 0) trace_->flow_end_at("frame", t, corr, peer);
    }
    ingest(peer, std::move(frame));
  }
  if (at > 0)
    inbuf.erase(inbuf.begin(), inbuf.begin() + static_cast<std::ptrdiff_t>(at));
  if (dead) drop_connection(peer);
  return p.fd >= 0;
}

void SocketTransport::release_due() {
  const double t = now();
  while (!delayed_.empty() && delayed_.top().due_s <= t) {
    ready_.push_back(std::move(const_cast<Delayed&>(delayed_.top()).frame));
    delayed_.pop();
  }
}

bool SocketTransport::recv(Frame& out, double timeout_s) {
  const double deadline = now() + timeout_s;
  bool polled_once = false;
  for (;;) {
    release_due();
    if (!ready_.empty()) {
      out = std::move(ready_.front());
      ready_.pop_front();
      return true;
    }
    const double remaining = deadline - now();
    // timeout 0 still gets one non-blocking poll pass (the engine drains
    // arrivals between execution slices this way).
    if (polled_once && remaining <= 0.0) return false;
    double wait = std::max(0.0, remaining);
    if (!delayed_.empty())
      wait = std::min(wait,
                      std::max(0.0, delayed_.top().due_s - now()) + 1e-4);

    std::vector<pollfd> set;
    set.push_back({listen_fd_, POLLIN, 0});
    std::vector<std::uint32_t> who;  // peer rank per pollfd after [0]
    for (std::uint32_t r = 0; r < config_.size; ++r)
      if (peers_[r].fd >= 0) {
        set.push_back({peers_[r].fd, POLLIN, 0});
        who.push_back(r);
      }
    for (const Peer& u : unidentified_) set.push_back({u.fd, POLLIN, 0});

    // Sub-millisecond waits round up to 1 ms (poll granularity) so short
    // delay windows cannot degenerate into a busy spin.
    const int wait_ms =
        remaining <= 0.0 ? 0 : std::max(1, static_cast<int>(wait * 1e3));
    const int rc = poll(set.data(), set.size(), wait_ms);
    polled_once = true;
    if (rc > 0) {
      if (set[0].revents & POLLIN) accept_new();
      for (std::size_t i = 0; i < who.size(); ++i)
        if (set[1 + i].revents & (POLLIN | POLLHUP | POLLERR))
          pump(who[i]);
      // Hellos on freshly accepted fds (reconnects mid-run).
      identify_pending();
    }
  }
}

std::size_t SocketTransport::pending() const {
  return ready_.size() + delayed_.size();
}

void SocketTransport::close() {
  for (std::uint32_t r = 0; r < config_.size; ++r) drop_connection(r);
  for (Peer& u : unidentified_)
    if (u.fd >= 0) ::close(u.fd);
  unidentified_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(sock_path(config_.rank).c_str());
  }
}

}  // namespace pmpl::runtime
