#include "sim/packet/cc.h"

#include <algorithm>
#include <cmath>

namespace netcong::sim::packet {

const char* cc_algo_name(CcAlgo algo) {
  switch (algo) {
    case CcAlgo::kNewReno:
      return "reno";
    case CcAlgo::kCubic:
      return "cubic";
    case CcAlgo::kBbr:
      return "bbr";
  }
  return "?";
}

bool parse_cc_algo(std::string_view name, CcAlgo* out) {
  if (name == "reno" || name == "newreno") {
    *out = CcAlgo::kNewReno;
    return true;
  }
  if (name == "cubic") {
    *out = CcAlgo::kCubic;
    return true;
  }
  if (name == "bbr") {
    *out = CcAlgo::kBbr;
    return true;
  }
  return false;
}

std::unique_ptr<CongestionControl> make_congestion_control(CcAlgo algo,
                                                           double initial_cwnd,
                                                           double max_cwnd) {
  switch (algo) {
    case CcAlgo::kNewReno:
      return std::make_unique<NewRenoCc>(initial_cwnd, max_cwnd);
    case CcAlgo::kCubic:
      return std::make_unique<CubicCc>(initial_cwnd, max_cwnd);
    case CcAlgo::kBbr:
      return std::make_unique<BbrCc>(initial_cwnd, max_cwnd);
  }
  return nullptr;
}

// --- NewReno ---------------------------------------------------------------
// The float operations below replicate the historical inline TcpFlow logic
// exactly (same expressions, same order) — the cc_test fingerprint pin
// depends on it. The max_cwnd clamp is new but is the identity whenever the
// window stays below the cap, which holds on every pinned scenario.

void NewRenoCc::on_ack(const CcAck&) {
  if (cwnd_ < ssthresh_) {
    cwnd_ += 1.0;  // slow start
  } else {
    cwnd_ += 1.0 / cwnd_;  // congestion avoidance
  }
  if (cwnd_ > max_cwnd_) cwnd_ = max_cwnd_;
}

void NewRenoCc::on_dupack_loss(double) {
  ssthresh_ = std::max(2.0, cwnd_ / 2.0);
  cwnd_ = ssthresh_;
}

void NewRenoCc::on_timeout(double) {
  ssthresh_ = std::max(2.0, cwnd_ / 2.0);
  cwnd_ = 1.0;
}

// --- Cubic -----------------------------------------------------------------

namespace {
constexpr double kCubicBeta = 0.7;
constexpr double kCubicC = 0.4;
}  // namespace

void CubicCc::on_ack(const CcAck& ack) {
  if (cwnd_ < ssthresh_) {
    cwnd_ += 1.0;  // slow start (hystart omitted: deterministic exit on loss)
  } else {
    if (epoch_start_s_ < 0.0) {
      epoch_start_s_ = ack.now_s;
      if (cwnd_ < w_max_) {
        k_ = std::cbrt((w_max_ - cwnd_) / kCubicC);
        origin_ = w_max_;
      } else {
        k_ = 0.0;
        origin_ = cwnd_;
      }
    }
    double t = ack.now_s - epoch_start_s_;
    double dt = t - k_;
    double target = origin_ + kCubicC * dt * dt * dt;
    if (target > cwnd_) {
      cwnd_ += (target - cwnd_) / cwnd_;
    } else {
      cwnd_ += 0.01 / cwnd_;  // plateau: creep until the cubic curve passes
    }
  }
  if (cwnd_ > max_cwnd_) cwnd_ = max_cwnd_;
}

void CubicCc::on_loss(double new_cwnd) {
  // Fast convergence: a loss below the previous W_max means a competitor
  // took bandwidth — remember a slightly smaller peak so shares converge.
  if (cwnd_ < w_max_) {
    w_max_ = cwnd_ * (2.0 - kCubicBeta) / 2.0;
  } else {
    w_max_ = cwnd_;
  }
  ssthresh_ = std::max(2.0, cwnd_ * kCubicBeta);
  cwnd_ = new_cwnd;
  epoch_start_s_ = -1.0;
}

void CubicCc::on_dupack_loss(double) {
  double cut = std::max(2.0, cwnd_ * kCubicBeta);
  on_loss(cut);
}

void CubicCc::on_timeout(double) { on_loss(1.0); }

// --- BBR -------------------------------------------------------------------

namespace {
constexpr double kStartupGain = 2.885;  // 2/ln(2)
constexpr double kDrainGain = 1.0 / kStartupGain;
constexpr double kBbrCwndGain = 2.0;
constexpr double kMinCwnd = 4.0;
constexpr int kBtlBwWindowRounds = 10;
constexpr double kRtPropWindowS = 10.0;
// PROBE_BW pacing-gain cycle; the probe (1.25) and drain (0.75) phases
// bracket six cruise phases, each lasting ~one RTprop.
constexpr double kCycleGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr std::size_t kCycleLen = sizeof(kCycleGains) / sizeof(kCycleGains[0]);
}  // namespace

double BbrCc::btlbw_pps() const {
  return btlbw_window_.empty() ? 0.0 : btlbw_window_.front().second;
}

double BbrCc::rtprop_s() const {
  return rtprop_window_.empty() ? 0.0 : rtprop_window_.front().second;
}

double BbrCc::cwnd() const {
  double bdp = bdp_packets();
  if (bdp <= 0.0) {
    return std::min(initial_cwnd_, max_cwnd_);
  }
  double gain = phase_ == Phase::kProbeBw ? kBbrCwndGain : kStartupGain;
  return std::min(std::max(kMinCwnd, gain * bdp), max_cwnd_);
}

double BbrCc::pacing_rate_pps() const {
  double bw = btlbw_pps();
  if (bw <= 0.0) return 0.0;  // no model yet: initial window burst
  double gain = kStartupGain;
  switch (phase_) {
    case Phase::kStartup:
      gain = kStartupGain;
      break;
    case Phase::kDrain:
      gain = kDrainGain;
      break;
    case Phase::kProbeBw:
      gain = kCycleGains[cycle_index_];
      break;
  }
  return gain * bw;
}

const char* BbrCc::phase() const {
  switch (phase_) {
    case Phase::kStartup:
      return "STARTUP";
    case Phase::kDrain:
      return "DRAIN";
    case Phase::kProbeBw:
      return "PROBE_BW";
  }
  return "?";
}

void BbrCc::advance_round(const CcAck& ack) {
  if (ack.delivered < round_end_delivered_) return;
  ++round_count_;
  // Packets currently in flight are acked by the end of the next round.
  round_end_delivered_ =
      ack.delivered + static_cast<std::int64_t>(ack.in_flight) + 1;
}

void BbrCc::check_full_pipe() {
  // Once per round: if the bandwidth estimate stopped growing >= 25% for
  // three consecutive rounds, the pipe is full.
  if (round_count_ == last_full_pipe_round_) return;
  last_full_pipe_round_ = round_count_;
  double bw = btlbw_pps();
  if (bw > full_bw_ * 1.25) {
    full_bw_ = bw;
    full_bw_rounds_ = 0;
    return;
  }
  ++full_bw_rounds_;
  if (full_bw_rounds_ >= 3) phase_ = Phase::kDrain;
}

void BbrCc::on_ack(const CcAck& ack) {
  advance_round(ack);

  // RTprop: windowed min over valid samples. A sample no smaller than the
  // new one can never be the min again, so it leaves before the push; the
  // window ages from the front only here, when a new sample arrives.
  if (ack.rtt_s > 0.0) {
    while (!rtprop_window_.empty() &&
           rtprop_window_.back().second >= ack.rtt_s) {
      rtprop_window_.pop_back();
    }
    rtprop_window_.emplace_back(ack.now_s, ack.rtt_s);
    while (!rtprop_window_.empty() &&
           rtprop_window_.front().first < ack.now_s - kRtPropWindowS) {
      rtprop_window_.pop_front();
    }
  }

  // BtlBw: windowed max over delivery-rate samples. The sample is the
  // delivered delta since the acked packet was sent, over its flight time;
  // samples it dominates leave the back, as in the RTprop filter.
  if (ack.delivered_at_send >= 0 && ack.now_s > ack.sent_time_s) {
    double rate = static_cast<double>(ack.delivered - ack.delivered_at_send) /
                  (ack.now_s - ack.sent_time_s);
    if (rate > 0.0) {
      while (!btlbw_window_.empty() && btlbw_window_.back().second <= rate) {
        btlbw_window_.pop_back();
      }
      btlbw_window_.emplace_back(round_count_, rate);
      while (!btlbw_window_.empty() &&
             btlbw_window_.front().first <
                 round_count_ - kBtlBwWindowRounds) {
        btlbw_window_.pop_front();
      }
    }
  }

  switch (phase_) {
    case Phase::kStartup:
      check_full_pipe();
      if (phase_ == Phase::kDrain && bdp_packets() > 0.0 &&
          ack.in_flight <= bdp_packets()) {
        // Degenerate: nothing queued to drain.
        phase_ = Phase::kProbeBw;
        cycle_index_ = 0;
        cycle_start_s_ = ack.now_s;
      }
      break;
    case Phase::kDrain:
      if (bdp_packets() > 0.0 && ack.in_flight <= bdp_packets()) {
        phase_ = Phase::kProbeBw;
        cycle_index_ = 0;
        cycle_start_s_ = ack.now_s;
      }
      break;
    case Phase::kProbeBw: {
      double rtprop = rtprop_s();
      if (rtprop > 0.0 && ack.now_s - cycle_start_s_ >= rtprop) {
        cycle_index_ = (cycle_index_ + 1) % kCycleLen;
        cycle_start_s_ = ack.now_s;
      }
      break;
    }
  }
}

void BbrCc::on_dupack_loss(double) {
  if (phase_ == Phase::kStartup) phase_ = Phase::kDrain;
}

void BbrCc::on_timeout(double) {
  // Keep the bandwidth/RTT model across RTOs (as Linux BBR does): the
  // go-back-N resend is paced off the existing BtlBw estimate, which is
  // what keeps a SACK-less sender from re-entering the STARTUP overshoot
  // and losing another burst. Loss in STARTUP still means the pipe is full.
  if (phase_ == Phase::kStartup) phase_ = Phase::kDrain;
}

}  // namespace netcong::sim::packet
