// The framed socket front-end (DESIGN.md §12): a loopback listener feeding
// a live IngestService. The contracts under test — every valid frame
// becomes exactly one submit, every malformed byte sequence gets a typed
// rejection (never a crash), the conserved accounting
// frames_ok = events_submitted + events_dropped holds whatever the client
// does, and the deterministic short-read / mid-frame-disconnect faults
// exercise reassembly and truncation classification.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "gen/workload.h"
#include "helpers.h"
#include "infer/datasets.h"
#include "measure/ndt.h"
#include "measure/platform.h"
#include "route/bgp.h"
#include "route/forwarding.h"
#include "serve/codec.h"
#include "serve/event.h"
#include "serve/net.h"
#include "serve/service.h"
#include "sim/faults.h"
#include "sim/throughput.h"

namespace netcong::serve {
namespace {

struct Stack {
  explicit Stack(const gen::World& w)
      : world(w),
        bgp(*w.topo),
        fwd(*w.topo, bgp),
        model(*w.topo, *w.traffic),
        mlab("mlab", *w.topo, w.mlab_servers),
        ip2as(*w.topo),
        orgs(*w.topo) {}
  const gen::World& world;
  route::BgpRouting bgp;
  route::Forwarder fwd;
  sim::ThroughputModel model;
  measure::Platform mlab;
  infer::Ip2As ip2as;
  infer::OrgMap orgs;
};

Stack& stack() {
  static Stack s(test::tiny_world());
  return s;
}

const std::vector<IngestEvent>& event_log() {
  static const std::vector<IngestEvent> log = [] {
    Stack& s = stack();
    std::vector<gen::TestRequest> schedule;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < s.world.clients.size(); ++i) {
        schedule.push_back(
            {s.world.clients[i],
             10.0 + round * 0.05 + static_cast<double>(i) * 0.003});
      }
    }
    measure::NdtCampaign campaign(s.world, s.fwd, s.model, s.mlab,
                                  measure::CampaignConfig{});
    util::Rng rng(20170402);
    return event_log_from(campaign.run_columnar(schedule, rng));
  }();
  return log;
}

ServeConfig block_config() {
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 64;
  cfg.policy = OverflowPolicy::kBlock;
  return cfg;
}

// Polls until the predicate holds or a generous deadline passes — the
// server side is asynchronous, so counters trail the client's sends.
template <typename Pred>
bool eventually(Pred&& pred, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(NetRoundTripTest, EveryFrameBecomesOneSubmit) {
  Stack& s = stack();
  const auto& log = event_log();
  ASSERT_FALSE(log.empty());

  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  FrameListener listener(svc, NetConfig{});
  ASSERT_TRUE(listener.start(0).ok());
  ASSERT_NE(listener.port(), 0);

  FrameClient client;
  ASSERT_TRUE(client.connect("localhost", listener.port()).ok());
  for (const IngestEvent& ev : log) {
    ASSERT_TRUE(client.send(ev).ok());
  }
  EXPECT_EQ(client.events_sent(), log.size());
  client.close();

  ASSERT_TRUE(eventually([&] {
    return listener.counters().events_submitted == log.size();
  }));
  NetCounters net = listener.counters();
  EXPECT_EQ(net.connections_accepted, 1u);
  EXPECT_EQ(net.frames_ok, log.size());
  EXPECT_EQ(net.frames_rejected(), 0u);
  EXPECT_EQ(net.events_dropped, 0u);
  EXPECT_TRUE(net.consistent());
  listener.stop();

  // The socket path reaches the exact state direct submission reaches.
  ServiceSnapshot via_socket = svc.drain_and_stop();
  EXPECT_EQ(via_socket.events_consumed, log.size());
  IngestService direct(s.ip2as, s.orgs, block_config());
  direct.start();
  for (const IngestEvent& ev : log) ASSERT_TRUE(direct.submit(ev));
  EXPECT_EQ(direct.drain_and_stop().fingerprint, via_socket.fingerprint);
}

TEST(NetRoundTripTest, ShortReadFaultStillDeliversEverything) {
  Stack& s = stack();
  const auto& log = event_log();
  std::size_t n = std::min<std::size_t>(log.size(), 40);

  sim::FaultConfig fcfg;
  fcfg.enabled = true;
  fcfg.net_short_read_prob = 1.0;  // every connection reads 1-3 bytes a time
  sim::FaultInjector inj(fcfg, 99);

  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  NetConfig ncfg;
  ncfg.faults = &inj;
  FrameListener listener(svc, ncfg);
  ASSERT_TRUE(listener.start(0).ok());

  FrameClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", listener.port()).ok());
  for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(client.send(log[i]).ok());
  client.close();

  // Reassembly across every possible split point must lose nothing.
  ASSERT_TRUE(eventually(
      [&] { return listener.counters().events_submitted == n; }, 30000));
  NetCounters net = listener.counters();
  EXPECT_EQ(net.frames_ok, n);
  EXPECT_EQ(net.frames_rejected(), 0u);
  EXPECT_TRUE(net.consistent());
  listener.stop();
  svc.stop();
}

TEST(NetRejectionTest, GarbageGetsTypedCountsNeverACrash) {
  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  FrameListener listener(svc, NetConfig{});
  ASSERT_TRUE(listener.start(0).ok());

  std::vector<std::uint8_t> good;
  append_frame(event_log().front(), good);

  // Each damaged buffer goes over a fresh connection (the listener closes
  // a connection after its first bad frame — no resync on a byte stream).
  auto send_bytes = [&](const std::vector<std::uint8_t>& bytes) {
    FrameClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", listener.port()).ok());
    ASSERT_TRUE(c.send_raw(bytes.data(), bytes.size()).ok());
    c.close();
  };

  std::vector<std::uint8_t> bad_version = good;
  bad_version[8] = 42;
  send_bytes(bad_version);
  ASSERT_TRUE(eventually(
      [&] { return listener.counters().rejected_bad_version == 1; }));

  std::vector<std::uint8_t> bad_kind = good;
  bad_kind[9] = 9;
  send_bytes(bad_kind);
  ASSERT_TRUE(
      eventually([&] { return listener.counters().rejected_bad_kind == 1; }));

  std::vector<std::uint8_t> oversize = good;
  std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(oversize.data(), &huge, sizeof(huge));
  send_bytes(oversize);
  ASSERT_TRUE(
      eventually([&] { return listener.counters().rejected_oversize == 1; }));

  std::vector<std::uint8_t> bad_crc = good;
  bad_crc[kFrameHeaderBytes] ^= 0x10;
  send_bytes(bad_crc);
  ASSERT_TRUE(eventually(
      [&] { return listener.counters().rejected_bad_checksum == 1; }));

  // Intact frame, undecodable payload: CRC recomputed so it passes parse.
  std::vector<std::uint8_t> bad_payload(kFrameHeaderBytes);
  std::uint32_t len = 4;
  std::memcpy(bad_payload.data(), &len, sizeof(len));
  bad_payload[8] = kFrameVersion;
  bad_payload[9] = 0;
  bad_payload.insert(bad_payload.end(), {0xff, 0xff, 0xff, 0xff});
  std::uint32_t crc = crc32c(bad_payload.data() + 8, 4 + 4);
  std::memcpy(bad_payload.data() + 4, &crc, sizeof(crc));
  send_bytes(bad_payload);
  ASSERT_TRUE(eventually(
      [&] { return listener.counters().rejected_bad_payload == 1; }));

  // A valid frame that simply stops mid-way: EOF with leftover bytes.
  std::vector<std::uint8_t> stub(good.begin(),
                                 good.begin() + good.size() / 2);
  send_bytes(stub);
  ASSERT_TRUE(
      eventually([&] { return listener.counters().rejected_truncated == 1; }));

  NetCounters net = listener.counters();
  EXPECT_EQ(net.frames_ok, 0u);
  EXPECT_EQ(net.frames_rejected(), 6u);
  EXPECT_EQ(net.frames_received(), 6u);
  EXPECT_TRUE(net.consistent());
  EXPECT_EQ(net.events_submitted, 0u);

  // The daemon is still alive and serving after all of it.
  FrameClient ok;
  ASSERT_TRUE(ok.connect("127.0.0.1", listener.port()).ok());
  ASSERT_TRUE(ok.send(event_log().front()).ok());
  ok.close();
  ASSERT_TRUE(
      eventually([&] { return listener.counters().events_submitted == 1; }));
  listener.stop();
  svc.stop();
}

TEST(NetRejectionTest, InjectedMidFrameDisconnectIsOneTruncatedFrame) {
  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  FrameListener listener(svc, NetConfig{});
  ASSERT_TRUE(listener.start(0).ok());

  sim::FaultConfig fcfg;
  fcfg.enabled = true;
  fcfg.net_disconnect_prob = 1.0;
  sim::FaultInjector inj(fcfg, 1234);
  FrameClient client(&inj);
  ASSERT_TRUE(client.connect("127.0.0.1", listener.port()).ok());
  util::Status st = client.send(event_log().front());
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.events_sent(), 0u);

  ASSERT_TRUE(
      eventually([&] { return listener.counters().rejected_truncated == 1; }));
  NetCounters net = listener.counters();
  EXPECT_EQ(net.frames_ok, 0u);
  EXPECT_TRUE(net.consistent());
  listener.stop();
  svc.stop();
}

TEST(NetLimitsTest, ConnectionCapRejectsTheOverflow) {
  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  NetConfig ncfg;
  ncfg.max_connections = 1;
  FrameListener listener(svc, ncfg);
  ASSERT_TRUE(listener.start(0).ok());

  FrameClient holder;
  ASSERT_TRUE(holder.connect("127.0.0.1", listener.port()).ok());
  // Prove the holder's connection is being handled before racing a second
  // one against the cap.
  ASSERT_TRUE(holder.send(event_log().front()).ok());
  ASSERT_TRUE(
      eventually([&] { return listener.counters().events_submitted == 1; }));

  FrameClient overflow;
  ASSERT_TRUE(overflow.connect("127.0.0.1", listener.port()).ok());
  ASSERT_TRUE(eventually(
      [&] { return listener.counters().connections_rejected_cap == 1; }));
  overflow.close();
  holder.close();
  NetCounters net = listener.counters();
  EXPECT_EQ(net.connections_accepted, 1u);
  EXPECT_TRUE(net.consistent());
  listener.stop();
  svc.stop();
}

TEST(NetLimitsTest, IdleConnectionTimesOut) {
  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  NetConfig ncfg;
  ncfg.read_timeout_s = 0.1;
  FrameListener listener(svc, ncfg);
  ASSERT_TRUE(listener.start(0).ok());

  FrameClient idle;
  ASSERT_TRUE(idle.connect("127.0.0.1", listener.port()).ok());
  ASSERT_TRUE(eventually(
      [&] { return listener.counters().connections_timed_out == 1; }));
  idle.close();
  listener.stop();
  svc.stop();
}

TEST(NetLimitsTest, ClientErrorsAreStatusesNotCrashes) {
  FrameClient c;
  EXPECT_FALSE(c.connect("not-a-host", 1).ok());
  EXPECT_FALSE(c.send(event_log().front()).ok());  // never connected
  std::uint8_t byte = 0;
  EXPECT_FALSE(c.send_raw(&byte, 1).ok());
  c.close();  // idempotent on a never-opened client

  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, block_config());
  svc.start();
  FrameListener listener(svc, NetConfig{});
  ASSERT_TRUE(listener.start(0).ok());
  EXPECT_FALSE(listener.start(0).ok());  // already running
  listener.stop();
  listener.stop();  // idempotent
  svc.stop();
}

}  // namespace
}  // namespace netcong::serve
