// Congestion-control strategy tests (DESIGN.md §13):
//
//   * NewReno regression pins: the strategy extraction must be bit-identical
//     to the historical inline TcpFlow logic. Each pinned constant below is
//     the FNV-1a scenario fingerprint captured from the pre-refactor sender
//     (full traces — max_trace_samples = 0 — because the legacy recorder was
//     unbounded). Any change to NewReno, the sender's ack/loss ordering, or
//     the fingerprint definition shows up as a mismatch here.
//   * Cubic and BBR output pins over three scenarios each, same fingerprint.
//   * Unit-level strategy behavior: window arithmetic of NewReno and Cubic,
//     BBR's model estimators and phase machine, driven by synthetic acks;
//     BBR's BtlBw/RTprop filters checked against brute-force windows.
//   * Scenario-level behavior: Cubic fills a pipe at least as well as
//     NewReno; BBR holds deep-buffer RTT near the propagation floor.
//   * AccessInterdomain: cross/local flows touch exactly one queue, and the
//     constrained hop is the one that drops.
//   * Trace downsampling: bounded, deterministic, and goodput-preserving.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "sim/packet/access_interdomain.h"
#include "sim/packet/cc.h"
#include "sim/packet/dumbbell.h"

namespace netcong::sim::packet {
namespace {

// Scenario fingerprint: flow count, per-flow stats fingerprints in index
// order, then bottleneck counters — matches the pre-refactor capture
// harness exactly.
std::uint64_t scenario_fp(const DumbbellResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(r.flows.size()));
  for (const auto& f : r.flows) mix(stats_fingerprint(f.stats));
  mix(static_cast<std::uint64_t>(r.bottleneck_drops));
  mix(static_cast<std::uint64_t>(r.bottleneck_delivered));
  return h;
}

Dumbbell::Params link(double mbps, int buf, double dur) {
  Dumbbell::Params p;
  p.bottleneck_mbps = mbps;
  p.buffer_packets = buf;
  p.duration_s = dur;
  return p;
}

FlowSpec full_trace_flow(double rtt_s, double start_s = 0.0) {
  FlowSpec s;
  s.base_rtt_s = rtt_s;
  s.start_time_s = start_s;
  s.max_trace_samples = 0;  // legacy unbounded recording
  return s;
}

// --- NewReno bit-identity pins --------------------------------------------

TEST(NewRenoPin, SingleFlowFingerprintAndGoodput) {
  Dumbbell d(link(50, 400, 20));
  d.add_flow(full_trace_flow(0.03));
  DumbbellResult r = d.run();
  EXPECT_EQ(scenario_fp(r), 0x8ec3456bfbf254bcull);
  EXPECT_NEAR(r.flows[0].goodput_mbps, 48.369600, 1e-6);
}

TEST(NewRenoPin, ThreeFlowFairSharing) {
  Dumbbell d(link(60, 400, 30));
  for (int i = 0; i < 3; ++i) d.add_flow(full_trace_flow(0.04));
  EXPECT_EQ(scenario_fp(d.run()), 0x1d0b095237af3a0eull);
}

TEST(NewRenoPin, ShallowBufferLossy) {
  Dumbbell d(link(20, 60, 20));
  d.add_flow(full_trace_flow(0.03));
  d.add_flow(full_trace_flow(0.03));
  EXPECT_EQ(scenario_fp(d.run()), 0xfb60d26059a42a3eull);
}

TEST(NewRenoPin, SelfQueueing) {
  Dumbbell d(link(20, 300, 15));
  d.add_flow(full_trace_flow(0.02));
  EXPECT_EQ(scenario_fp(d.run()), 0x3a9b7c54727d06e6ull);
}

TEST(NewRenoPin, LateJoinerAgainstStandingQueue) {
  Dumbbell d(link(20, 250, 25));
  for (int i = 0; i < 4; ++i) d.add_flow(full_trace_flow(0.02));
  d.add_flow(full_trace_flow(0.02, 10.0));
  EXPECT_EQ(scenario_fp(d.run()), 0x1bedf505de8f6260ull);
}

TEST(NewRenoPin, Sec62TestFlowWindow) {
  Dumbbell d(link(100, 400, 40));
  for (int i = 0; i < 8; ++i) d.add_flow(full_trace_flow(0.04));
  FlowSpec t = full_trace_flow(0.04, 25.0);
  t.stop_time_s = 35.0;
  d.add_flow(t);
  EXPECT_EQ(scenario_fp(d.run()), 0xaaa8471b28fc5580ull);
}

// --- Cubic and BBR output pins --------------------------------------------
// Captured with BBR filters that rescanned their full windows on every
// read, the reference the monotonic deques must match bit for bit. Any
// change to either strategy's arithmetic or to the filters' windowed
// max/min or aging shows up here. The 15 s runs outlast the 10 s RTprop
// window, so RTT samples age out of it.

FlowSpec cc_trace_flow(CcAlgo cc, double rtt_s) {
  FlowSpec s = full_trace_flow(rtt_s);
  s.cc = cc;
  return s;
}

DumbbellResult single_flow(CcAlgo cc) {
  Dumbbell d(link(20, 100, 15));
  d.add_flow(cc_trace_flow(cc, 0.03));
  return d.run();
}

DumbbellResult three_flows(CcAlgo cc) {
  Dumbbell d(link(30, 200, 15));
  for (int i = 0; i < 3; ++i) d.add_flow(cc_trace_flow(cc, 0.04));
  return d.run();
}

DumbbellResult shallow_lossy(CcAlgo cc) {
  Dumbbell d(link(20, 30, 15));
  d.add_flow(cc_trace_flow(cc, 0.03));
  d.add_flow(cc_trace_flow(cc, 0.03));
  return d.run();
}

TEST(CubicPin, SingleFlow) {
  EXPECT_EQ(scenario_fp(single_flow(CcAlgo::kCubic)),
            0x3111c6b57fe9dd91ull);
}

TEST(CubicPin, ThreeFlows) {
  EXPECT_EQ(scenario_fp(three_flows(CcAlgo::kCubic)),
            0x8c1beca72fa5e2c3ull);
}

TEST(CubicPin, ShallowBufferLossy) {
  DumbbellResult r = shallow_lossy(CcAlgo::kCubic);
  EXPECT_GT(r.bottleneck_drops, 0);
  EXPECT_EQ(scenario_fp(r), 0x29110d880b2b05d7ull);
}

TEST(BbrPin, SingleFlow) {
  EXPECT_EQ(scenario_fp(single_flow(CcAlgo::kBbr)),
            0x5051c4ae1278ff44ull);
}

TEST(BbrPin, ThreeFlows) {
  EXPECT_EQ(scenario_fp(three_flows(CcAlgo::kBbr)),
            0x3533420c0b5d61c9ull);
}

TEST(BbrPin, ShallowBufferLossy) {
  DumbbellResult r = shallow_lossy(CcAlgo::kBbr);
  EXPECT_GT(r.bottleneck_drops, 0);
  EXPECT_EQ(scenario_fp(r), 0x1433ced524eefcd4ull);
}

// --- strategy unit behavior -----------------------------------------------

TEST(CcAlgoNames, RoundTripAndAliases) {
  for (CcAlgo algo : {CcAlgo::kNewReno, CcAlgo::kCubic, CcAlgo::kBbr}) {
    CcAlgo parsed;
    ASSERT_TRUE(parse_cc_algo(cc_algo_name(algo), &parsed));
    EXPECT_EQ(parsed, algo);
  }
  CcAlgo parsed;
  EXPECT_TRUE(parse_cc_algo("newreno", &parsed));
  EXPECT_EQ(parsed, CcAlgo::kNewReno);
  EXPECT_FALSE(parse_cc_algo("vegas", &parsed));
  EXPECT_FALSE(parse_cc_algo("RENO", &parsed));
}

CcAck ack_at(double now_s, double rtt_s, std::int64_t delivered,
             double in_flight) {
  CcAck a;
  a.now_s = now_s;
  a.rtt_s = rtt_s;
  a.delivered = delivered;
  a.in_flight = in_flight;
  return a;
}

TEST(NewRenoCcUnit, SlowStartThenAimd) {
  NewRenoCc cc(10.0, 1000.0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 10.0);
  cc.on_ack(ack_at(0.1, 0.02, 1, 9));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 11.0);  // slow start: +1 per ack

  cc.on_dupack_loss(0.2);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 5.5);  // halved, ssthresh = cwnd

  cc.on_ack(ack_at(0.3, 0.02, 2, 5));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 5.5 + 1.0 / 5.5);  // congestion avoidance

  cc.on_timeout(0.4);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 1.0);
}

TEST(NewRenoCcUnit, HonorsMaxCwnd) {
  NewRenoCc cc(10.0, 12.0);
  for (int i = 0; i < 10; ++i) cc.on_ack(ack_at(0.1 * i, 0.02, i, 10));
  EXPECT_DOUBLE_EQ(cc.cwnd(), 12.0);
}

TEST(CubicCcUnit, GentlerCutAndFastConvergence) {
  CubicCc cc(100.0, 1000.0);
  cc.on_dupack_loss(1.0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 70.0);   // beta = 0.7 (NewReno would halve)
  EXPECT_DOUBLE_EQ(cc.w_max(), 100.0);

  // Second loss below the previous peak: fast convergence remembers a
  // smaller W_max, cwnd * (2 - beta) / 2.
  cc.on_dupack_loss(2.0);
  EXPECT_DOUBLE_EQ(cc.cwnd(), 49.0);
  EXPECT_DOUBLE_EQ(cc.w_max(), 70.0 * (2.0 - 0.7) / 2.0);
}

TEST(CubicCcUnit, GrowsBackTowardWmaxAlongCubic) {
  CubicCc cc(100.0, 1000.0);
  cc.on_dupack_loss(1.0);  // w_max = 100, cwnd = 70, epoch resets
  double after_cut = cc.cwnd();
  // First post-loss ack starts the epoch; K = cbrt((100-70)/0.4) ≈ 4.2 s.
  cc.on_ack(ack_at(2.0, 0.02, 1, 60));
  for (int i = 1; i <= 40; ++i) {
    cc.on_ack(ack_at(2.0 + 0.1 * i, 0.02, 1 + i, 60));
  }
  // 4 s into the epoch the window has climbed most of the way back toward
  // W_max (the per-ack step is (target - cwnd)/cwnd, so it trails the
  // cubic curve) without overshooting the old peak.
  EXPECT_GT(cc.cwnd(), after_cut + 5.0);
  EXPECT_LE(cc.cwnd(), 100.0 + 1.0);
}

TEST(BbrCcUnit, ModelEstimatorsTrackSamples) {
  BbrCc cc(10.0, 10000.0);
  EXPECT_STREQ(cc.phase(), "STARTUP");
  EXPECT_DOUBLE_EQ(cc.btlbw_pps(), 0.0);
  EXPECT_DOUBLE_EQ(cc.pacing_rate_pps(), 0.0);  // no model yet: unpaced

  CcAck a = ack_at(1.0, 0.04, 100, 20.0);
  a.delivered_at_send = 60;  // 40 packets over 0.04 s -> 1000 pps
  a.sent_time_s = 0.96;
  cc.on_ack(a);
  EXPECT_NEAR(cc.btlbw_pps(), 1000.0, 1e-9);
  EXPECT_NEAR(cc.rtprop_s(), 0.04, 1e-12);
  EXPECT_NEAR(cc.bdp_packets(), 40.0, 1e-6);
  // STARTUP paces at 2.885 * BtlBw and caps cwnd at 2.885 * BDP.
  EXPECT_NEAR(cc.pacing_rate_pps(), 2.885 * 1000.0, 1e-6);
  EXPECT_NEAR(cc.cwnd(), 2.885 * 40.0, 1e-6);
}

TEST(BbrCcUnit, FlatBandwidthExitsStartup) {
  BbrCc cc(10.0, 10000.0);
  // Feed rounds whose delivery rate stops growing: after three flat
  // rounds the full-pipe detector must leave STARTUP.
  std::int64_t delivered = 0;
  double now = 0.0;
  for (int round = 0; round < 12 && std::string(cc.phase()) == "STARTUP";
       ++round) {
    for (int i = 0; i < 10; ++i) {
      delivered += 4;
      now += 0.01;
      CcAck a = ack_at(now, 0.04, delivered, 10.0);
      a.delivered_at_send = delivered - 40;  // constant 1000 pps sample
      a.sent_time_s = now - 0.04;
      if (a.delivered_at_send < 0) a.delivered_at_send = 0;
      cc.on_ack(a);
    }
  }
  EXPECT_STRNE(cc.phase(), "STARTUP");
}

TEST(BbrCcUnit, LossInStartupDrainsAndTimeoutKeepsModel) {
  BbrCc cc(10.0, 10000.0);
  CcAck a = ack_at(1.0, 0.04, 100, 20.0);
  a.delivered_at_send = 60;
  a.sent_time_s = 0.96;
  cc.on_ack(a);
  double bw = cc.btlbw_pps();
  ASSERT_GT(bw, 0.0);

  cc.on_dupack_loss(1.5);
  EXPECT_STREQ(cc.phase(), "DRAIN");  // loss = pipe-full signal in STARTUP
  cc.on_timeout(2.0);
  EXPECT_DOUBLE_EQ(cc.btlbw_pps(), bw);  // RTO keeps the bandwidth model
}

// Brute-force model of BBR's two filters: full windows, scanned on every
// read, aged from the front only when a sample of that filter arrives.
// Rounds follow BbrCc::advance_round.
struct ReferenceBbrFilters {
  std::deque<std::pair<std::int64_t, double>> btlbw;  // (round, rate)
  std::deque<std::pair<double, double>> rtprop;       // (time, rtt)
  std::int64_t round_count = 0;
  std::int64_t round_end_delivered = 0;

  void on_ack(const CcAck& ack) {
    if (ack.delivered >= round_end_delivered) {
      ++round_count;
      round_end_delivered =
          ack.delivered + static_cast<std::int64_t>(ack.in_flight) + 1;
    }
    if (ack.rtt_s > 0.0) {
      rtprop.emplace_back(ack.now_s, ack.rtt_s);
      while (rtprop.front().first < ack.now_s - 10.0) rtprop.pop_front();
    }
    if (ack.delivered_at_send >= 0 && ack.now_s > ack.sent_time_s) {
      double rate =
          static_cast<double>(ack.delivered - ack.delivered_at_send) /
          (ack.now_s - ack.sent_time_s);
      if (rate > 0.0) {
        btlbw.emplace_back(round_count, rate);
        while (btlbw.front().first < round_count - 10) btlbw.pop_front();
      }
    }
  }
  double btlbw_pps() const {
    double best = 0.0;
    for (const auto& s : btlbw) best = std::max(best, s.second);
    return best;
  }
  double rtprop_s() const {
    double best = 0.0;
    for (const auto& s : rtprop) {
      if (best == 0.0 || s.second < best) best = s.second;
    }
    return best;
  }
};

TEST(BbrCcUnit, FiltersMatchBruteForceWindowsOnLongAckStream) {
  BbrCc cc(10.0, 10000.0);
  ReferenceBbrFilters ref;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state](std::uint64_t n) {  // splitmix64, reduced mod n
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % n;
  };

  double now = 0.0;
  std::int64_t delivered = 0;
  int btlbw_fell = 0, rtprop_rose = 0, stale_max_kept = 0;
  int rounds_without_rate = 0, invalid_rtts = 0;
  double prev_bw = 0.0, prev_rtt = 0.0;
  for (int i = 0; i < 40000; ++i) {
    // Shapes change every 1500 acks (longer than the RTprop window):
    // rising, falling, flat (equal samples) and random, on a small grid so
    // equal values recur in every shape.
    int shape = (i / 1500) % 4;
    int step = i % 1500;
    auto shaped = [&](int levels) {
      switch (shape) {
        case 0:
          return step * levels / 1500;
        case 1:
          return levels - 1 - step * levels / 1500;
        case 2:
          return levels / 2;
        default:
          return static_cast<int>(next(levels));
      }
    };
    // Every 4000 acks: a 12 s gap (whole RTprop window goes stale), then a
    // stretch of acks that close rounds but carry no rate sample. Steps of
    // 1/256 s keep times exact, so samples exactly 10 s old occur.
    bool quiet = i % 4000 >= 3800;
    now += i % 4000 == 0 && i > 0 ? 12.0 : (1 + next(4)) / 256.0;
    delivered += static_cast<std::int64_t>(next(4));

    CcAck a = ack_at(now, -1.0, delivered, static_cast<double>(next(8)));
    if (next(8) != 0) a.rtt_s = 0.02 + 0.001 * shaped(16);
    if (!quiet && next(4) != 0) {
      std::int64_t span = 1 + static_cast<std::int64_t>(shaped(40));
      a.delivered_at_send = std::max<std::int64_t>(0, delivered - span);
      a.sent_time_s = now - 0.01 * static_cast<double>(1 + next(3));
    }

    std::int64_t round_before = ref.round_count;
    cc.on_ack(a);
    ref.on_ack(a);
    ASSERT_EQ(cc.btlbw_pps(), ref.btlbw_pps()) << "ack " << i;
    ASSERT_EQ(cc.rtprop_s(), ref.rtprop_s()) << "ack " << i;

    if (a.rtt_s < 0.0) ++invalid_rtts;
    if (ref.round_count > round_before && a.delivered_at_send < 0) {
      ++rounds_without_rate;
    }
    if (!ref.btlbw.empty() &&
        ref.btlbw.front().first < ref.round_count - 10) {
      ++stale_max_kept;  // no rate sample has aged the window yet
    }
    if (ref.btlbw_pps() < prev_bw) ++btlbw_fell;
    if (ref.rtprop_s() > prev_rtt && prev_rtt > 0.0) ++rtprop_rose;
    prev_bw = ref.btlbw_pps();
    prev_rtt = ref.rtprop_s();
  }
  // The stream exercised what it was built for.
  EXPECT_GT(invalid_rtts, 1000);
  EXPECT_GT(rounds_without_rate, 100);
  EXPECT_GT(stale_max_kept, 100);
  EXPECT_GT(btlbw_fell, 100);  // a max aged out of the BtlBw window
  EXPECT_GT(rtprop_rose, 10);  // a min aged out of the RTprop window
}

// --- scenario-level behavior ----------------------------------------------

double solo_goodput(CcAlgo cc, double mbps, int buf, double rtt_s,
                    double dur) {
  Dumbbell d(link(mbps, buf, dur));
  FlowSpec s;
  s.base_rtt_s = rtt_s;
  s.cc = cc;
  d.add_flow(s);
  return d.run().flows[0].goodput_mbps;
}

TEST(CcScenarios, CubicFillsThePipeAtLeastAsWellAsReno) {
  double reno = solo_goodput(CcAlgo::kNewReno, 40, 100, 0.04, 20);
  double cubic = solo_goodput(CcAlgo::kCubic, 40, 100, 0.04, 20);
  EXPECT_GE(cubic, 0.95 * reno);
  EXPECT_GE(cubic, 0.8 * 40.0);
}

TEST(CcScenarios, BbrBoundsDeepBufferQueueRenoBloatsIt) {
  // 5x-BDP buffer: a loss-based flow fills most of it before each cut
  // (bufferbloat: mean RTT several times the floor), while BBR's 2x-BDP
  // inflight cap bounds the standing queue to about one BDP, keeping mean
  // RTT near 2x the 50 ms floor.
  auto run = [](CcAlgo cc) {
    Dumbbell d(link(30, 625, 20));  // BDP at 50 ms rtt = 125 packets
    FlowSpec s;
    s.base_rtt_s = 0.05;
    s.cc = cc;
    d.add_flow(s);
    return d.run().flows[0];
  };
  FlowResult reno = run(CcAlgo::kNewReno);
  FlowResult bbr = run(CcAlgo::kBbr);
  EXPECT_GT(reno.mean_rtt_ms, 130.0);       // bufferbloated
  EXPECT_LT(bbr.mean_rtt_ms, 120.0);        // model-bounded queue
  EXPECT_LT(bbr.mean_rtt_ms, 0.7 * reno.mean_rtt_ms);
  EXPECT_GE(bbr.goodput_mbps, 0.8 * 30.0);
}

// --- AccessInterdomain two-hop scenario -----------------------------------

TEST(AccessInterdomain, ConstrainedAccessDropsOnlyThere) {
  AccessInterdomain::Params p;
  p.interdomain_mbps = 500.0;
  p.interdomain_buffer_packets = 1000;
  p.access_mbps = 20.0;
  p.access_buffer_packets = 50;
  p.duration_s = 10.0;
  AccessInterdomain net(p);
  net.add_flow(full_trace_flow(0.03), FlowPath::kServerToClient);
  AiResult r = net.run();
  EXPECT_GT(r.access_drops, 0);
  EXPECT_EQ(r.interdomain_drops, 0);
  EXPECT_GE(r.flows[0].goodput_mbps, 0.7 * 20.0);
  EXPECT_LE(r.flows[0].goodput_mbps, 20.0);
}

TEST(AccessInterdomain, ConstrainedInterdomainDropsOnlyThere) {
  AccessInterdomain::Params p;
  p.interdomain_mbps = 30.0;
  p.interdomain_buffer_packets = 100;
  p.access_mbps = 100.0;
  p.access_buffer_packets = 1000;
  p.duration_s = 10.0;
  AccessInterdomain net(p);
  net.add_flow(full_trace_flow(0.03), FlowPath::kServerToClient);
  net.add_flow(full_trace_flow(0.04), FlowPath::kCrossInterdomain);
  net.add_flow(full_trace_flow(0.05), FlowPath::kCrossInterdomain);
  AiResult r = net.run();
  EXPECT_GT(r.interdomain_drops, 0);
  EXPECT_EQ(r.access_drops, 0);
  // The test flow shares the 30 Mbps hop with two cross flows.
  EXPECT_LT(r.flows[0].goodput_mbps, 25.0);
}

TEST(AccessInterdomain, PathsTouchExactlyTheirQueues) {
  AccessInterdomain::Params p;
  p.duration_s = 5.0;
  AccessInterdomain net(p);
  // A local-access flow never crosses the interdomain queue...
  net.add_flow(full_trace_flow(0.02), FlowPath::kLocalAccess);
  AiResult local_only = net.run();
  EXPECT_EQ(local_only.interdomain_delivered, 0);
  EXPECT_GT(local_only.access_delivered, 0);

  // ...and a cross flow never touches the access queue.
  AccessInterdomain net2(p);
  net2.add_flow(full_trace_flow(0.02), FlowPath::kCrossInterdomain);
  AiResult cross_only = net2.run();
  EXPECT_GT(cross_only.interdomain_delivered, 0);
  EXPECT_EQ(cross_only.access_delivered, 0);
}

// --- trace downsampling ---------------------------------------------------

TEST(TraceDownsampling, BoundedAndSubsetOfFullTrace) {
  auto run = [](std::size_t cap) {
    Dumbbell d(link(50, 400, 20));
    FlowSpec s;
    s.base_rtt_s = 0.03;
    s.max_trace_samples = cap;
    d.add_flow(s);
    return d.run().flows[0].stats;
  };
  TcpStats full = run(0);
  TcpStats capped = run(64);

  ASSERT_GT(full.ack_trace.size(), 64u);
  EXPECT_LE(capped.ack_trace.size(), 64u);
  EXPECT_LE(capped.rtt_samples_ms.size(), 64u);
  EXPECT_EQ(capped.rtt_samples_ms.size(), capped.rtt_sample_times_s.size());
  // Counters are unaffected by recording policy.
  EXPECT_EQ(capped.packets_sent, full.packets_sent);
  EXPECT_EQ(capped.packets_acked, full.packets_acked);

  // Every retained ack-trace point exists in the full trace (pure
  // downsampling, no resampled values), in the same order.
  std::set<std::pair<double, std::int64_t>> full_points(
      full.ack_trace.begin(), full.ack_trace.end());
  double prev = -1.0;
  for (const auto& pt : capped.ack_trace) {
    EXPECT_TRUE(full_points.count(pt)) << "synthesized trace point";
    EXPECT_GT(pt.first, prev);
    prev = pt.first;
  }

  // Goodput computed from the downsampled trace stays close to the truth.
  double g_full = goodput_over_mbps(full, 1500, 0.0, 20.0);
  double g_capped = goodput_over_mbps(capped, 1500, 0.0, 20.0);
  EXPECT_NEAR(g_capped, g_full, 0.05 * g_full);
}

TEST(TraceDownsampling, DeterministicAcrossRuns) {
  auto run = [] {
    Dumbbell d(link(30, 200, 15));
    FlowSpec s;
    s.base_rtt_s = 0.04;
    s.max_trace_samples = 128;
    d.add_flow(s);
    return d.run().flows[0].stats;
  };
  TcpStats a = run();
  TcpStats b = run();
  EXPECT_EQ(stats_fingerprint(a), stats_fingerprint(b));
  EXPECT_EQ(a.rtt_sample_times_s, b.rtt_sample_times_s);
}

}  // namespace
}  // namespace netcong::sim::packet
