#pragma once

// Framed TCP front-end for the ingest service (DESIGN.md §12). External
// producers connect to a loopback-style listener and stream codec frames;
// each valid frame becomes one IngestService::submit(). The socket is a
// hostile input: every malformed frame is classified with the codec's
// typed FrameError and counted — the daemon never crashes and never
// trusts a length it has not validated. A byte stream cannot be resynced
// after a bad frame, so the connection is closed after counting it.
//
// Backpressure maps onto the service's overflow policy: under kBlock a
// full queue blocks the connection thread in submit(), the kernel socket
// buffer fills, and the producer's send() stalls — TCP flow control *is*
// the backpressure. Under kDrop the event is counted dropped here and in
// the service, keeping the conserved accounting
//   frames_received = frames_ok + frames_rejected
//   frames_ok       = events_submitted + events_dropped
// that NetCounters::consistent() checks and fold_into() carries into the
// campaign-level sim::DataQuality report.
//
// Fault sites (sim/faults): kNetShortRead makes the server read a
// connection in 1-3 byte chunks (reassembly stress); kNetDisconnect makes
// FrameClient vanish mid-frame, which the server must count as one
// truncated frame and survive.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/codec.h"
#include "serve/service.h"
#include "sim/faults.h"
#include "util/result.h"

namespace netcong::serve {

struct NetConfig {
  // Connections beyond the cap are accepted and immediately closed
  // (counted), so a stuck fleet of producers cannot exhaust threads.
  std::size_t max_connections = 32;
  // Per-connection receive timeout; an idle connection is dropped.
  double read_timeout_s = 5.0;
  // Optional deterministic fault injector (site kNetShortRead). Must
  // outlive the listener.
  const sim::FaultInjector* faults = nullptr;
};

struct NetCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected_cap = 0;
  std::uint64_t connections_timed_out = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t rejected_bad_version = 0;
  std::uint64_t rejected_bad_kind = 0;
  std::uint64_t rejected_oversize = 0;
  std::uint64_t rejected_bad_checksum = 0;
  std::uint64_t rejected_bad_payload = 0;
  std::uint64_t rejected_truncated = 0;  // connection died mid-frame
  std::uint64_t events_submitted = 0;    // accepted by the service
  std::uint64_t events_dropped = 0;      // queue-full under kDrop / stopped

  std::uint64_t frames_rejected() const {
    return rejected_bad_version + rejected_bad_kind + rejected_oversize +
           rejected_bad_checksum + rejected_bad_payload + rejected_truncated;
  }
  std::uint64_t frames_received() const {
    return frames_ok + frames_rejected();
  }
  // The conserved-accounting invariant: no frame or event vanishes
  // unclassified between the socket and the queues.
  bool consistent() const {
    return frames_ok == events_submitted + events_dropped;
  }
  // Adds the socket-layer accounting to a campaign data-quality report.
  void fold_into(sim::DataQuality& quality) const;
};

// Accepts framed-event connections on loopback and feeds the service.
class FrameListener {
 public:
  // The service and injector must outlive the listener.
  FrameListener(IngestService& service, NetConfig config);
  ~FrameListener();
  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  // Binds 127.0.0.1:port (0 = kernel-assigned, see port()) and starts the
  // accept loop.
  util::Status start(std::uint16_t port);

  // The bound port (after start()).
  std::uint16_t port() const { return port_; }

  // Closes the listener and every live connection, then joins all
  // threads. Idempotent; the destructor calls it.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  NetCounters counters() const;

 private:
  void accept_loop(int listen_fd);
  void handle_connection(int fd, std::uint64_t conn_id);
  void track(int fd, bool add);

  IngestService& service_;
  NetConfig config_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> live_fds_;
  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> next_conn_id_{0};

  // One relaxed atomic per NetCounters field, snapshotted by counters().
  struct AtomicCounters;
  std::unique_ptr<AtomicCounters> ctr_;
};

// Producer side: connects to a FrameListener (or anything speaking the
// frame format) and sends one frame per event.
class FrameClient {
 public:
  // Optional injector enables kNetDisconnect: a send() may deliver only a
  // partial frame and close the socket, like a crashing producer.
  explicit FrameClient(const sim::FaultInjector* faults = nullptr);
  ~FrameClient();
  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  // host: dotted quad or "localhost".
  util::Status connect(const std::string& host, std::uint16_t port);
  bool connected() const { return fd_ >= 0; }

  util::Status send(const IngestEvent& event);

  // Ships arbitrary bytes as-is — the tests' tool for speaking garbage at
  // the listener.
  util::Status send_raw(const std::uint8_t* data, std::size_t n);

  void close();

  std::uint64_t events_sent() const { return sent_; }

 private:
  const sim::FaultInjector* faults_;
  int fd_ = -1;
  std::uint64_t sent_ = 0;
  std::uint64_t attempts_ = 0;
};

}  // namespace netcong::serve
