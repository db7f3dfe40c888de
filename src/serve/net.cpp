#include "serve/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"

namespace netcong::serve {

namespace {

void set_recv_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

struct NetMetrics {
  obs::Counter connections;
  obs::Counter frames_ok;
  obs::Counter frames_rejected;
  obs::Counter events_dropped;
  NetMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    connections = reg.counter("serve.net.connections");
    frames_ok = reg.counter("serve.net.frames_ok");
    frames_rejected = reg.counter("serve.net.frames_rejected");
    events_dropped = reg.counter("serve.net.events_dropped");
  }
};

NetMetrics& net_metrics() {
  static NetMetrics m;
  return m;
}

}  // namespace

void NetCounters::fold_into(sim::DataQuality& quality) const {
  quality.ingest_frames_ok += frames_ok;
  quality.ingest_frames_rejected += frames_rejected();
  quality.ingest_events_submitted += events_submitted;
  quality.ingest_events_dropped += events_dropped;
}

struct FrameListener::AtomicCounters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected_cap{0};
  std::atomic<std::uint64_t> connections_timed_out{0};
  std::atomic<std::uint64_t> frames_ok{0};
  std::atomic<std::uint64_t> rejected_bad_version{0};
  std::atomic<std::uint64_t> rejected_bad_kind{0};
  std::atomic<std::uint64_t> rejected_oversize{0};
  std::atomic<std::uint64_t> rejected_bad_checksum{0};
  std::atomic<std::uint64_t> rejected_bad_payload{0};
  std::atomic<std::uint64_t> rejected_truncated{0};
  std::atomic<std::uint64_t> events_submitted{0};
  std::atomic<std::uint64_t> events_dropped{0};

  void count_reject(FrameError err) {
    switch (err) {
      case FrameError::kBadVersion: rejected_bad_version++; break;
      case FrameError::kBadKind: rejected_bad_kind++; break;
      case FrameError::kOversize: rejected_oversize++; break;
      case FrameError::kBadChecksum: rejected_bad_checksum++; break;
      case FrameError::kBadPayload: rejected_bad_payload++; break;
      case FrameError::kTruncated: rejected_truncated++; break;
      case FrameError::kNone: break;
    }
    net_metrics().frames_rejected.inc();
  }
};

FrameListener::FrameListener(IngestService& service, NetConfig config)
    : service_(service),
      config_(config),
      ctr_(std::make_unique<AtomicCounters>()) {}

FrameListener::~FrameListener() { stop(); }

util::Status FrameListener::start(std::uint16_t port) {
  if (running_.load()) return util::error_status("listener already running");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::error_status("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return util::error_status("bind 127.0.0.1:" + std::to_string(port) +
                              ": " + err);
  }
  if (::listen(fd, 64) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return util::error_status("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  running_.store(true);
  // The accept thread gets its own copy of the fd: listen_fd_ belongs to
  // the thread calling start()/stop().
  accept_thread_ = std::thread([this, fd] { accept_loop(fd); });
  return util::ok_status();
}

void FrameListener::stop() {
  bool was_running = running_.exchange(false);
  // shutdown() wakes the accept thread out of accept(); the fd is closed
  // only after that thread has exited, so accept() never runs on a closed
  // (and possibly already reused) descriptor.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (was_running) {
    // Kick live connections out of recv(); their threads then observe
    // running_ == false and exit.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void FrameListener::track(int fd, bool add) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (add) {
    live_fds_.push_back(fd);
  } else {
    for (std::size_t i = 0; i < live_fds_.size(); ++i) {
      if (live_fds_[i] == fd) {
        live_fds_[i] = live_fds_.back();
        live_fds_.pop_back();
        break;
      }
    }
  }
}

void FrameListener::accept_loop(int listen_fd) {
  while (running_.load()) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by stop()
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    if (active_.load() >= config_.max_connections) {
      ctr_->connections_rejected_cap++;
      ::close(fd);
      continue;
    }
    active_++;
    ctr_->connections_accepted++;
    net_metrics().connections.inc();
    std::uint64_t conn_id = next_conn_id_++;
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back(
        [this, fd, conn_id] { handle_connection(fd, conn_id); });
  }
}

void FrameListener::handle_connection(int fd, std::uint64_t conn_id) {
  set_recv_timeout(fd, config_.read_timeout_s);
  track(fd, true);

  // Short-read fault: this connection's reads arrive 1-3 bytes at a time,
  // forcing the reassembly path through every split point.
  std::size_t chunk = 64 * 1024;
  const sim::FaultInjector* f = config_.faults;
  if (f && f->fires(sim::FaultSite::kNetShortRead, conn_id,
                    f->config().net_short_read_prob)) {
    util::Rng rng = f->stream(sim::FaultSite::kNetShortRead, conn_id);
    (void)rng.chance(f->config().net_short_read_prob);
    chunk = static_cast<std::size_t>(rng.uniform_int(1, 3));
  }

  std::vector<std::uint8_t> read_buf(chunk);
  std::vector<std::uint8_t> pending;
  bool close_conn = false;
  while (!close_conn && running_.load()) {
    ssize_t r = ::recv(fd, read_buf.data(), read_buf.size(), 0);
    if (r == 0) {
      // Orderly EOF. Leftover bytes are a frame the producer never
      // finished — the mid-frame-disconnect case, counted as truncated.
      if (!pending.empty()) ctr_->count_reject(FrameError::kTruncated);
      break;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ctr_->connections_timed_out++;
      }
      if (!pending.empty()) ctr_->count_reject(FrameError::kTruncated);
      break;
    }
    pending.insert(pending.end(), read_buf.data(), read_buf.data() + r);

    std::size_t off = 0;
    while (off < pending.size()) {
      FrameView frame;
      std::size_t consumed = 0;
      FrameError err = parse_frame(pending.data() + off, pending.size() - off,
                                   &frame, &consumed);
      if (err == FrameError::kTruncated) break;  // need more bytes
      if (err != FrameError::kNone) {
        // A byte stream cannot resync after a bad frame: count the typed
        // rejection and drop the connection.
        ctr_->count_reject(err);
        close_conn = true;
        break;
      }
      util::Result<IngestEvent> event = decode_event(frame);
      if (!event.ok()) {
        ctr_->count_reject(FrameError::kBadPayload);
        close_conn = true;
        break;
      }
      ctr_->frames_ok++;
      net_metrics().frames_ok.inc();
      // Under kBlock a full queue blocks right here, which stalls this
      // read loop and lets TCP flow control push back on the producer.
      if (service_.submit(std::move(event.value()))) {
        ctr_->events_submitted++;
      } else {
        ctr_->events_dropped++;
        net_metrics().events_dropped.inc();
      }
      off += consumed;
    }
    if (off > 0) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
  track(fd, false);
  ::close(fd);
  active_--;
}

NetCounters FrameListener::counters() const {
  NetCounters c;
  c.connections_accepted = ctr_->connections_accepted.load();
  c.connections_rejected_cap = ctr_->connections_rejected_cap.load();
  c.connections_timed_out = ctr_->connections_timed_out.load();
  c.frames_ok = ctr_->frames_ok.load();
  c.rejected_bad_version = ctr_->rejected_bad_version.load();
  c.rejected_bad_kind = ctr_->rejected_bad_kind.load();
  c.rejected_oversize = ctr_->rejected_oversize.load();
  c.rejected_bad_checksum = ctr_->rejected_bad_checksum.load();
  c.rejected_bad_payload = ctr_->rejected_bad_payload.load();
  c.rejected_truncated = ctr_->rejected_truncated.load();
  c.events_submitted = ctr_->events_submitted.load();
  c.events_dropped = ctr_->events_dropped.load();
  return c;
}

FrameClient::FrameClient(const sim::FaultInjector* faults) : faults_(faults) {}

FrameClient::~FrameClient() { close(); }

util::Status FrameClient::connect(const std::string& host,
                                  std::uint16_t port) {
  if (fd_ >= 0) return util::error_status("client already connected");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string h = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    return util::error_status("bad host '" + host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::error_status("socket: " + std::string(std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return util::error_status("connect " + h + ":" + std::to_string(port) +
                              ": " + err);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return util::ok_status();
}

util::Status FrameClient::send(const IngestEvent& event) {
  if (fd_ < 0) return util::error_status("client not connected");
  std::vector<std::uint8_t> frame;
  append_frame(event, frame);

  double prob = faults_ ? faults_->config().net_disconnect_prob : 0.0;
  std::uint64_t item = attempts_++;
  if (faults_ && frame.size() > 1 &&
      faults_->fires(sim::FaultSite::kNetDisconnect, item, prob)) {
    // Producer crash mid-frame: a strict prefix goes out, then the socket
    // closes. The server must classify the stub as one truncated frame.
    util::Rng rng = faults_->stream(sim::FaultSite::kNetDisconnect, item);
    (void)rng.chance(prob);
    std::size_t partial = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(frame.size()) - 1));
    send_all(fd_, frame.data(), partial);
    close();
    return util::error_status("disconnected mid-frame (injected)");
  }

  if (!send_all(fd_, frame.data(), frame.size())) {
    std::string err = std::strerror(errno);
    close();
    return util::error_status("send: " + err);
  }
  ++sent_;
  return util::ok_status();
}

util::Status FrameClient::send_raw(const std::uint8_t* data, std::size_t n) {
  if (fd_ < 0) return util::error_status("client not connected");
  if (!send_all(fd_, data, n)) {
    std::string err = std::strerror(errno);
    close();
    return util::error_status("send: " + err);
  }
  return util::ok_status();
}

void FrameClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace netcong::serve
