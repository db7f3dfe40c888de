// The always-on ingest service: lifecycle idempotence, backpressure and
// drop accounting under a deliberately slow consumer, and snapshot
// determinism across worker-thread counts — the same guarantees the
// ingest.* property family checks on random worlds, pinned here on the
// cached tiny world so failures localize and tsan gets a dense schedule
// of cross-thread submits/snapshots to race-check.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "gen/workload.h"
#include "helpers.h"
#include "infer/alias.h"
#include "infer/datasets.h"
#include "measure/ndt.h"
#include "measure/platform.h"
#include "route/bgp.h"
#include "route/forwarding.h"
#include "serve/event.h"
#include "serve/net.h"
#include "serve/queue.h"
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
        orgs(*w.topo),
        aliases(*w.topo, 0.9, 7) {}
  const gen::World& world;
  route::BgpRouting bgp;
  route::Forwarder fwd;
  sim::ThroughputModel model;
  measure::Platform mlab;
  infer::Ip2As ip2as;
  infer::OrgMap orgs;
  infer::AliasResolver aliases;
};

Stack& stack() {
  static Stack s(test::tiny_world());
  return s;
}

// Process-cached event log: a dense multi-round schedule over every client,
// flattened into arrival order.
const std::vector<IngestEvent>& event_log() {
  static const std::vector<IngestEvent> log = [] {
    Stack& s = stack();
    std::vector<gen::TestRequest> schedule;
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < s.world.clients.size(); ++i) {
        schedule.push_back(
            {s.world.clients[i],
             10.0 + round * 0.05 + static_cast<double>(i) * 0.003});
      }
    }
    measure::NdtCampaign campaign(s.world, s.fwd, s.model, s.mlab,
                                  measure::CampaignConfig{});
    util::Rng rng(20150501);
    return event_log_from(campaign.run_columnar(schedule, rng));
  }();
  return log;
}

ServeConfig base_config(std::size_t shards) {
  ServeConfig cfg;
  cfg.shards = shards;
  cfg.queue_capacity = 32;
  cfg.policy = OverflowPolicy::kBlock;
  if (!stack().world.ark_vps.empty()) {
    cfg.vp_as = stack().world.topo->host(stack().world.ark_vps[0]).asn;
  }
  return cfg;
}

TEST(BoundedQueueTest, BlockPolicyConservesItems) {
  BoundedQueue<int> q(2, OverflowPolicy::kBlock);
  std::thread consumer([&] {
    while (q.pop()) {
    }
  });
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.push(i));
  q.close();
  consumer.join();
  QueueCounters c = q.counters();
  EXPECT_EQ(c.pushed, 100u);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.popped, 100u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueueTest, DropPolicyCountsOverflow) {
  BoundedQueue<int> q(2, OverflowPolicy::kDrop);
  // No consumer: the third push must drop.
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_FALSE(q.push(3));
  QueueCounters c = q.counters();
  EXPECT_EQ(c.pushed, 2u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.pushed, c.popped + q.depth());  // accepted items conserved
  q.close();
  EXPECT_FALSE(q.push(4));
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(8, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  q.close();  // idempotent
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(ServeLifecycleTest, StartFlushStopIdempotent) {
  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, base_config(2));
  svc.start();
  svc.start();  // second start is a no-op
  EXPECT_TRUE(svc.running());
  EXPECT_EQ(svc.shards(), 2u);
  svc.flush();  // flush of an empty service returns immediately
  ServiceSnapshot empty = svc.snapshot();
  EXPECT_EQ(empty.events_consumed, 0u);
  EXPECT_EQ(empty.traces, 0u);
  EXPECT_EQ(empty.ndt_tests, 0u);
  svc.stop();
  svc.stop();  // idempotent
  EXPECT_FALSE(svc.running());
  EXPECT_FALSE(svc.submit(event_log().front()));
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.submitted, 0u);
}

TEST(ServeLifecycleTest, SubmitBeforeStartIsRejected) {
  Stack& s = stack();
  IngestService svc(s.ip2as, s.orgs, base_config(1));
  EXPECT_FALSE(svc.submit(event_log().front()));
  svc.start();
  EXPECT_TRUE(svc.submit(event_log().front()));
  svc.stop();
}

TEST(ServeBackpressureTest, BlockPolicySlowConsumerLosesNothing) {
  Stack& s = stack();
  ServeConfig cfg = base_config(2);
  cfg.queue_capacity = 2;
  cfg.consume_delay_us = 50;  // consumer far slower than the producers
  IngestService svc(s.ip2as, s.orgs, cfg);
  svc.start();

  const auto& log = event_log();
  std::size_t n = std::min<std::size_t>(log.size(), 400);
  // Two producers racing into tiny queues: every submit must block until
  // space opens, never fail.
  std::thread other([&] {
    for (std::size_t i = n / 2; i < n; ++i) {
      EXPECT_TRUE(svc.submit(log[i]));
    }
  });
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_TRUE(svc.submit(log[i]));
  }
  other.join();
  svc.flush();
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.submitted, n);
  EXPECT_EQ(c.enqueued, n);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.consumed, n);
  svc.stop();
}

TEST(ServeBackpressureTest, DropPolicyAccountsEveryEvent) {
  Stack& s = stack();
  ServeConfig cfg = base_config(2);
  cfg.policy = OverflowPolicy::kDrop;
  cfg.queue_capacity = 2;
  cfg.consume_delay_us = 100;
  IngestService svc(s.ip2as, s.orgs, cfg);
  svc.start();

  const auto& log = event_log();
  std::size_t n = std::min<std::size_t>(log.size(), 400);
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (svc.submit(log[i])) ++accepted;
  }
  svc.flush();
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.submitted, n);
  EXPECT_EQ(c.enqueued, accepted);
  EXPECT_EQ(c.submitted, c.enqueued + c.dropped);
  EXPECT_EQ(c.consumed, c.enqueued);
  EXPECT_GT(c.dropped, 0u);  // tiny queues + slowed consumer must overflow
  ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.events_consumed, c.enqueued);
  svc.stop();
}

TEST(ServeSnapshotTest, DeterministicAcrossWorkerCounts) {
  Stack& s = stack();
  const auto& log = event_log();
  ASSERT_FALSE(log.empty());

  std::uint64_t baseline = 0;
  const std::size_t shard_counts[] = {1, 2, 0};  // 0 = hardware threads
  for (std::size_t shards : shard_counts) {
    IngestService svc(s.ip2as, s.orgs, base_config(shards));
    svc.set_relationships(&s.world.topo->relationships(), &s.aliases);
    svc.start();
    for (const auto& ev : log) ASSERT_TRUE(svc.submit(ev));
    ServiceSnapshot snap = svc.snapshot();
    EXPECT_EQ(snap.events_consumed, log.size());
    if (shards == 1) {
      baseline = snap.fingerprint;
    } else {
      EXPECT_EQ(snap.fingerprint, baseline) << "shards=" << shards;
    }
    // Mid-stream determinism too: snapshot, ingest more, snapshot again —
    // still equal across shard counts because only the event set matters.
    svc.stop();
  }
  EXPECT_NE(baseline, 0u);
}

TEST(ServeSnapshotTest, SnapshotsAreIncremental) {
  Stack& s = stack();
  const auto& log = event_log();
  std::size_t half = log.size() / 2;

  IngestService svc(s.ip2as, s.orgs, base_config(2));
  svc.start();
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(svc.submit(log[i]));
  ServiceSnapshot first = svc.snapshot();
  EXPECT_EQ(first.events_consumed, half);
  for (std::size_t i = half; i < log.size(); ++i) {
    ASSERT_TRUE(svc.submit(log[i]));
  }
  ServiceSnapshot second = svc.snapshot();
  EXPECT_EQ(second.events_consumed, log.size());
  EXPECT_GE(second.traces, first.traces);
  EXPECT_GE(second.ndt_tests, first.ndt_tests);
  svc.stop();

  // The incremental end state equals a fresh service fed everything.
  IngestService fresh(s.ip2as, s.orgs, base_config(2));
  fresh.start();
  for (const auto& ev : log) ASSERT_TRUE(fresh.submit(ev));
  EXPECT_EQ(fresh.snapshot().fingerprint, second.fingerprint);
  fresh.stop();
}

// Regression for the drop-policy accounting gap: events arriving over the
// socket and dropped by a full kDrop queue must stay inside the conserved
// invariants at every layer — the listener's frame accounting, the
// service's submit accounting, and the campaign-level DataQuality report
// they fold into. Before §12 the socket layer had no ledger, so a dropped
// socket event simply vanished from the books.
TEST(ServeSocketTest, DropPolicyAccountingSpansSocketAndService) {
  Stack& s = stack();
  ServeConfig cfg = base_config(2);
  cfg.policy = OverflowPolicy::kDrop;
  cfg.queue_capacity = 2;
  cfg.consume_delay_us = 200;  // consumer far slower than loopback TCP
  IngestService svc(s.ip2as, s.orgs, cfg);
  svc.start();
  FrameListener listener(svc, NetConfig{});
  ASSERT_TRUE(listener.start(0).ok());

  const auto& log = event_log();
  std::size_t n = std::min<std::size_t>(log.size(), 400);
  FrameClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", listener.port()).ok());
  for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(client.send(log[i]).ok());
  client.close();

  // Wait until the listener has classified every frame, then quiesce.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (listener.counters().frames_ok < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  svc.flush();
  NetCounters net = listener.counters();
  listener.stop();

  // Socket-layer conservation: every good frame's event was either
  // submitted or classified dropped.
  EXPECT_EQ(net.frames_ok, n);
  EXPECT_EQ(net.frames_rejected(), 0u);
  EXPECT_TRUE(net.consistent());
  EXPECT_EQ(net.events_submitted + net.events_dropped, n);
  EXPECT_GT(net.events_dropped, 0u);  // tiny queues + slow consumer

  // Service-layer conservation, and the two ledgers agree edge for edge.
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.submitted, n);
  EXPECT_EQ(c.submitted, c.enqueued + c.dropped);
  EXPECT_EQ(c.enqueued, net.events_submitted);
  EXPECT_EQ(c.dropped, net.events_dropped);
  EXPECT_EQ(c.consumed, c.enqueued);

  // And the campaign-level report stays consistent once the socket share
  // is folded in.
  sim::DataQuality quality;
  net.fold_into(quality);
  EXPECT_TRUE(quality.consistent());
  EXPECT_EQ(quality.ingest_frames_ok, n);
  EXPECT_EQ(quality.ingest_events_submitted + quality.ingest_events_dropped,
            n);
  svc.stop();
}

// The snapshot diff stream: each snapshot's churn field must equal the
// diff recomputed from the two snapshots by diff_snapshots(), through both
// growth (borders added as evidence accumulates) and decay (borders
// removed when eviction ages their evidence out).
TEST(ServeSnapshotTest, DiffStreamMatchesRecomputedDiff) {
  Stack& s = stack();
  const auto& log = event_log();
  ASSERT_GT(log.size(), 16u);

  ServeConfig cfg = base_config(2);
  // Sized against the cached log (~2.7k events, whose single border's
  // traceroute evidence arrives mid-log): two 1024-event epochs keep the
  // border alive at the second snapshot and age it out by the third, so
  // the diff stream shows both growth and decay churn.
  cfg.epoch_events = 1024;
  cfg.retain_epochs = 2;
  IngestService svc(s.ip2as, s.orgs, cfg);
  svc.set_relationships(&s.world.topo->relationships(), &s.aliases);
  svc.start();

  // First snapshot: tiny prefix, so later snapshots have borders to add.
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(svc.submit(log[i]));
  ServiceSnapshot snap1 = svc.snapshot();
  EXPECT_FALSE(snap1.diff.changed());  // no previous snapshot to diff
  EXPECT_EQ(snap1.diff.events_delta, 0);

  // Second: the bulk of the log lands, growing the border map.
  std::size_t mid = log.size() / 2;
  for (std::size_t i = 4; i < mid; ++i) ASSERT_TRUE(svc.submit(log[i]));
  ServiceSnapshot snap2 = svc.snapshot();
  SnapshotDiff expect2 = diff_snapshots(snap1, snap2);
  EXPECT_EQ(snap2.diff.borders_added, expect2.borders_added);
  EXPECT_EQ(snap2.diff.borders_removed, expect2.borders_removed);
  EXPECT_EQ(snap2.diff.events_delta, expect2.events_delta);
  EXPECT_EQ(snap2.diff.events_delta,
            static_cast<std::int64_t>(snap2.events_consumed) -
                static_cast<std::int64_t>(snap1.events_consumed));
  EXPECT_FALSE(snap2.diff.borders_added.empty());  // growth churn

  // Third: the rest, with eviction aging the early epochs out.
  for (std::size_t i = mid; i < log.size(); ++i) {
    ASSERT_TRUE(svc.submit(log[i]));
  }
  ServiceSnapshot snap3 = svc.snapshot();
  EXPECT_GT(snap3.events_evicted, 0u);
  SnapshotDiff expect3 = diff_snapshots(snap2, snap3);
  EXPECT_EQ(snap3.diff.borders_added, expect3.borders_added);
  EXPECT_EQ(snap3.diff.borders_removed, expect3.borders_removed);
  EXPECT_EQ(snap3.diff.events_delta, expect3.events_delta);
  EXPECT_FALSE(snap3.diff.borders_removed.empty());  // decay churn
  svc.stop();
}

TEST(ServeEventTest, LogIsInArrivalOrder) {
  Stack& s = stack();
  // Each test starts exactly when the previous test's traceroute does (same
  // double arithmetic), so the log carries NDT/traceroute timestamp ties.
  const double ndt_h = measure::CampaignConfig{}.ndt_duration_s / 3600.0;
  std::vector<gen::TestRequest> schedule;
  double t = 12.0;
  for (std::uint32_t client : s.world.clients) {
    schedule.push_back({client, t});
    t += ndt_h;
  }
  measure::NdtCampaign campaign(s.world, s.fwd, s.model, s.mlab,
                                measure::CampaignConfig{});
  util::Rng rng(99);
  auto result = campaign.run_columnar(schedule, rng);
  auto log = event_log_from(result);
  ASSERT_EQ(log.size(), result.tests.size() + result.traceroutes.size());
  std::size_t ties = 0;
  for (std::size_t i = 1; i < log.size(); ++i) {
    double prev = event_time(log[i - 1]), cur = event_time(log[i]);
    EXPECT_LE(prev, cur) << "event " << i;
    if (prev != cur || is_ndt(log[i - 1]) == is_ndt(log[i])) continue;
    // At equal times the NDT result arrives ahead of the traceroute.
    EXPECT_TRUE(is_ndt(log[i - 1])) << "event " << i;
    ++ties;
  }
  EXPECT_GT(ties, 0u);
}

}  // namespace
}  // namespace netcong::serve
