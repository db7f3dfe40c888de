#pragma once

// Congestion-control strategies for the packet-level TCP sender. The
// TcpFlow owns reliability (sequencing, dupack/RTO loss detection, go-back-N
// recovery, RTT sampling) and delegates *how fast to send* to a
// CongestionControl: window growth on acks, multiplicative decrease on loss
// signals, and — for model-based senders — a pacing rate the flow obeys
// between window checks.
//
// Three deterministic implementations:
//
//   NewReno — slow start + AIMD congestion avoidance, extracted bit-for-bit
//             from the historical inline TcpFlow logic (the cc_test
//             fingerprint pin proves goodput/ack traces unchanged);
//   Cubic   — cubic window growth around the last loss point W_max with
//             fast convergence, beta = 0.7, C = 0.4;
//   BBR     — a model-based sender: STARTUP/DRAIN/PROBE_BW phases driven by
//             a windowed-max delivery-rate estimate (BtlBw) and windowed-min
//             RTT (RTprop), pacing-gain cycling in PROBE_BW. Loss is
//             (mostly) not a control signal, matching BBRv1.
//
// Everything is a pure function of the event sequence — no wall clocks, no
// RNG — so simulations stay bit-reproducible across runs and platforms.

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>

namespace netcong::sim::packet {

enum class CcAlgo { kNewReno, kCubic, kBbr };

const char* cc_algo_name(CcAlgo algo);
// Accepts "reno"/"newreno", "cubic", "bbr" (case-sensitive); returns false
// on anything else.
bool parse_cc_algo(std::string_view name, CcAlgo* out);

// Per-ack context handed to the strategy. Rate-sample fields implement the
// BBR delivery-rate estimator: the delivered counter snapshot taken when
// the newly acked packet was sent.
struct CcAck {
  double now_s = 0.0;
  double rtt_s = -1.0;  // < 0: no valid RTT sample on this ack (Karn)
  std::int64_t delivered = 0;  // cumulative in-order packets acked
  double in_flight = 0.0;      // packets outstanding after this ack
  // Delivery-rate sample: valid iff delivered_at_send >= 0.
  std::int64_t delivered_at_send = -1;
  double sent_time_s = 0.0;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual CcAlgo algo() const = 0;
  // Congestion window in packets; the sender keeps in-flight below this.
  virtual double cwnd() const = 0;
  // Packets/second the sender should pace at; <= 0 means unpaced (pure
  // window-limited bursts, the classic loss-based behavior).
  virtual double pacing_rate_pps() const { return 0.0; }
  // Current phase, for diagnostics ("-" for loss-based algorithms).
  virtual const char* phase() const { return "-"; }

  virtual void on_ack(const CcAck& ack) = 0;
  // Triple-duplicate-ack loss signal (fast retransmit entry).
  virtual void on_dupack_loss(double now_s) = 0;
  // Retransmission timeout.
  virtual void on_timeout(double now_s) = 0;
};

// `max_cwnd` caps the window (the sender/application limit used by the
// sender-limited pathmodel scenarios).
std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgo algo, double initial_cwnd, double max_cwnd);

// --- implementations (exposed for tests) ----------------------------------

class NewRenoCc final : public CongestionControl {
 public:
  NewRenoCc(double initial_cwnd, double max_cwnd)
      : cwnd_(initial_cwnd), max_cwnd_(max_cwnd) {}

  CcAlgo algo() const override { return CcAlgo::kNewReno; }
  double cwnd() const override { return cwnd_; }
  void on_ack(const CcAck& ack) override;
  void on_dupack_loss(double now_s) override;
  void on_timeout(double now_s) override;

 private:
  double cwnd_;
  double ssthresh_ = 1e9;
  double max_cwnd_;
};

class CubicCc final : public CongestionControl {
 public:
  CubicCc(double initial_cwnd, double max_cwnd)
      : cwnd_(initial_cwnd), max_cwnd_(max_cwnd) {}

  CcAlgo algo() const override { return CcAlgo::kCubic; }
  double cwnd() const override { return cwnd_; }
  void on_ack(const CcAck& ack) override;
  void on_dupack_loss(double now_s) override;
  void on_timeout(double now_s) override;

  double w_max() const { return w_max_; }

 private:
  // Shared multiplicative-decrease path: updates W_max (with fast
  // convergence), cuts ssthresh, sets the window to `new_cwnd`, and resets
  // the cubic epoch.
  void on_loss(double new_cwnd);

  double cwnd_;
  double ssthresh_ = 1e9;
  double max_cwnd_;
  double w_max_ = 0.0;        // window at the last loss event
  double epoch_start_s_ = -1.0;  // < 0: cubic epoch not yet started
  double k_ = 0.0;            // time to reach w_max_ from the epoch origin
  double origin_ = 0.0;
};

class BbrCc final : public CongestionControl {
 public:
  BbrCc(double initial_cwnd, double max_cwnd)
      : initial_cwnd_(initial_cwnd), max_cwnd_(max_cwnd) {}

  CcAlgo algo() const override { return CcAlgo::kBbr; }
  double cwnd() const override;
  double pacing_rate_pps() const override;
  const char* phase() const override;
  void on_ack(const CcAck& ack) override;
  // BBRv1 mostly ignores loss, but loss during STARTUP is taken as the
  // pipe-full signal (a common BBRv1 deployment variant). Without it the
  // 2.885× STARTUP overshoot on shallow buffers causes burst losses that a
  // SACK-less go-back-N sender cannot recover from.
  void on_dupack_loss(double now_s) override;
  // RTOs keep the bandwidth/RTT model (as Linux BBR does): the go-back-N
  // resend paces off the existing BtlBw estimate instead of re-running the
  // STARTUP overshoot.
  void on_timeout(double now_s) override;

  double btlbw_pps() const;   // 0 until the first delivery-rate sample
  double rtprop_s() const;    // 0 until the first RTT sample
  double bdp_packets() const { return btlbw_pps() * rtprop_s(); }

 private:
  enum class Phase { kStartup, kDrain, kProbeBw };

  void advance_round(const CcAck& ack);
  void check_full_pipe();

  double initial_cwnd_;
  double max_cwnd_;
  Phase phase_ = Phase::kStartup;

  // Exact windowed-max BtlBw filter over the 10-round window: a monotonic
  // deque of (round, rate) samples with strictly decreasing rates, so
  // front() is the max. Aged from the front only when a rate sample arrives.
  std::deque<std::pair<std::int64_t, double>> btlbw_window_;
  // Exact windowed-min RTprop filter over the 10 s window: a monotonic
  // deque of (time, rtt) samples with strictly increasing rtts, so front()
  // is the min. Aged from the front only when an RTT sample arrives.
  std::deque<std::pair<double, double>> rtprop_window_;

  std::int64_t round_count_ = 0;
  std::int64_t round_end_delivered_ = 0;

  double full_bw_ = 0.0;  // STARTUP plateau detector
  int full_bw_rounds_ = 0;
  std::int64_t last_full_pipe_round_ = -1;

  std::size_t cycle_index_ = 0;  // PROBE_BW gain-cycle position
  double cycle_start_s_ = 0.0;
};

}  // namespace netcong::sim::packet
