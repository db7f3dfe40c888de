#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "check/fixtures.h"
#include "check/properties.h"
#include "infer/alias.h"
#include "infer/bdrmap.h"
#include "infer/datasets.h"
#include "infer/mapit.h"
#include "measure/ndt.h"
#include "serve/event.h"
#include "serve/ndt_stats.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "util/strings.h"

// The ingest family (DESIGN.md §11/§12): the always-on service's snapshots
// must be bit-identical to a batch run over the same event-log prefix — for
// any producer interleaving and any shard count — its queue accounting must
// conserve events under both overflow policies, crash recovery from the WAL
// must replay exactly the surviving log prefix, and evidence eviction must
// be a deterministic function of the stream position.

namespace netcong::check {
namespace {

using gen::GeneratorConfig;
using util::format;

// The batch reference: feed the first `prefix` events of the log through
// run_mapit / borders_from_mapit / NdtStreamStats directly, with no queues
// or threads involved, and digest the result exactly as snapshot() does.
serve::ServiceSnapshot batch_snapshot(
    const std::vector<serve::IngestEvent>& log, std::size_t prefix,
    const infer::Ip2As& ip2as, const infer::OrgMap& orgs, topo::Asn vp_as,
    const topo::RelationshipTable* rels, const infer::AliasResolver* aliases,
    const infer::MapItConfig& mapit_cfg) {
  std::vector<measure::TracerouteRecord> traces;
  serve::ServiceSnapshot snap;
  for (std::size_t i = 0; i < prefix && i < log.size(); ++i) {
    if (const auto* t = std::get_if<measure::NdtRecord>(&log[i])) {
      snap.ndt.add(*t);
    } else {
      traces.push_back(std::get<measure::TracerouteRecord>(log[i]));
    }
  }
  snap.events_consumed = std::min(prefix, log.size());
  snap.ndt_tests = snap.ndt.tests();
  snap.mapit = infer::run_mapit(traces, ip2as, orgs, mapit_cfg);
  snap.traces = snap.mapit.coverage.traces_total;
  if (rels != nullptr && aliases != nullptr) {
    snap.borders =
        infer::borders_from_mapit(snap.mapit, vp_as, orgs, *rels, *aliases);
  }
  snap.fingerprint = serve::snapshot_fingerprint(snap);
  return snap;
}

std::string check_snapshot_equals_batch(const GeneratorConfig& cfg) {
  Stack s(cfg);
  const topo::Topology& t = *s.world.topo;
  infer::Ip2As ip2as(t);
  infer::OrgMap orgs(t);
  infer::AliasResolver aliases(t, 0.9, cfg.seed);

  auto schedule = dense_schedule(s.world, 2);
  measure::NdtCampaign campaign(s.world, s.fwd, s.model, s.mlab,
                                measure::CampaignConfig{});
  util::Rng rng(cfg.seed ^ 0x16e57ull);
  auto log = serve::event_log_from(campaign.run_columnar(schedule, rng));

  topo::Asn vp_as =
      s.world.ark_vps.empty() ? 0 : t.host(s.world.ark_vps[0]).asn;
  bool with_borders = !s.world.ark_vps.empty();

  util::Rng pick(cfg.seed ^ 0x9e1ec7ull);
  std::size_t prefix = static_cast<std::size_t>(
      pick.uniform_int(0, static_cast<std::int64_t>(log.size())));

  serve::ServiceSnapshot batch = batch_snapshot(
      log, prefix, ip2as, orgs, vp_as,
      with_borders ? &t.relationships() : nullptr,
      with_borders ? &aliases : nullptr, infer::MapItConfig{});

  const std::size_t shard_counts[] = {1, 2, 0};  // 0 = hardware threads
  for (std::size_t shards : shard_counts) {
    serve::ServeConfig scfg;
    scfg.shards = shards;
    scfg.queue_capacity = 64;  // small enough that kBlock engages
    scfg.policy = serve::OverflowPolicy::kBlock;
    scfg.vp_as = vp_as;
    serve::IngestService svc(ip2as, orgs, scfg);
    if (with_borders) svc.set_relationships(&t.relationships(), &aliases);
    svc.start();

    // A fresh random submission interleaving per shard count: the snapshot
    // must not depend on producer order, only on the event set.
    std::vector<std::size_t> order(prefix);
    for (std::size_t i = 0; i < prefix; ++i) order[i] = i;
    util::Rng shuffle = pick.fork(shards + 1);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          shuffle.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    for (std::size_t idx : order) {
      if (!svc.submit(log[idx])) {
        return format("shards=%zu: kBlock submit rejected event %zu", shards,
                      idx);
      }
    }

    serve::ServiceSnapshot snap = svc.snapshot();
    if (snap.fingerprint != batch.fingerprint) {
      return format("shards=%zu prefix=%zu/%zu: snapshot fingerprint "
                    "%016llx != batch %016llx",
                    shards, prefix, log.size(),
                    static_cast<unsigned long long>(snap.fingerprint),
                    static_cast<unsigned long long>(batch.fingerprint));
    }
    // A second snapshot with no new events is the same snapshot.
    serve::ServiceSnapshot again = svc.snapshot();
    if (again.fingerprint != snap.fingerprint) {
      return format("shards=%zu: back-to-back snapshots differ", shards);
    }
    svc.stop();
  }
  return "";
}

std::string check_drop_policy_accounting(const GeneratorConfig& cfg) {
  Stack s(cfg);
  infer::Ip2As ip2as(*s.world.topo);
  infer::OrgMap orgs(*s.world.topo);

  auto schedule = dense_schedule(s.world, 2);
  measure::NdtCampaign campaign(s.world, s.fwd, s.model, s.mlab,
                                measure::CampaignConfig{});
  util::Rng rng(cfg.seed ^ 0xacc7ull);
  auto log = serve::event_log_from(campaign.run_columnar(schedule, rng));
  if (log.empty()) return "";

  const serve::OverflowPolicy policies[] = {serve::OverflowPolicy::kBlock,
                                            serve::OverflowPolicy::kDrop};
  for (serve::OverflowPolicy policy : policies) {
    serve::ServeConfig scfg;
    scfg.shards = 2;
    // A tiny queue plus a slowed consumer makes overflow certain under
    // kDrop and backpressure certain under kBlock.
    scfg.queue_capacity = 2;
    scfg.consume_delay_us = 20;
    scfg.policy = policy;
    serve::IngestService svc(ip2as, orgs, scfg);
    svc.start();

    std::uint64_t accepted = 0;
    for (const auto& ev : log) {
      if (svc.submit(ev)) ++accepted;
    }
    svc.flush();

    serve::ServiceCounters c = svc.counters();
    const char* pname = serve::overflow_policy_name(policy);
    if (c.submitted != log.size()) {
      return format("%s: submitted %llu != %zu events", pname,
                    static_cast<unsigned long long>(c.submitted), log.size());
    }
    if (c.enqueued != accepted) {
      return format("%s: enqueued %llu != %llu accepted submits", pname,
                    static_cast<unsigned long long>(c.enqueued),
                    static_cast<unsigned long long>(accepted));
    }
    if (c.submitted != c.enqueued + c.dropped) {
      return format("%s: submitted %llu != enqueued %llu + dropped %llu",
                    pname, static_cast<unsigned long long>(c.submitted),
                    static_cast<unsigned long long>(c.enqueued),
                    static_cast<unsigned long long>(c.dropped));
    }
    if (c.consumed != c.enqueued) {
      return format("%s: after flush, consumed %llu != enqueued %llu", pname,
                    static_cast<unsigned long long>(c.consumed),
                    static_cast<unsigned long long>(c.enqueued));
    }
    if (policy == serve::OverflowPolicy::kBlock && c.dropped != 0) {
      return format("kBlock dropped %llu events",
                    static_cast<unsigned long long>(c.dropped));
    }
    // The consumed prefix is what snapshots see: the snapshot's event count
    // must equal the conserved enqueued count, not the submitted count.
    serve::ServiceSnapshot snap = svc.snapshot();
    if (snap.events_consumed != c.enqueued) {
      return format("%s: snapshot covers %llu events, %llu were enqueued",
                    pname,
                    static_cast<unsigned long long>(snap.events_consumed),
                    static_cast<unsigned long long>(c.enqueued));
    }
    svc.stop();
  }
  return "";
}

// Scratch directory for WAL properties; removed on scope exit. The name
// never influences results, so uniqueness (pid + counter) is all it needs.
struct TempDir {
  std::string path;
  explicit TempDir(std::uint64_t seed) {
    static std::atomic<std::uint64_t> counter{0};
    path = (std::filesystem::temp_directory_path() /
            format("netcong-wal-%d-%llu-%llu", static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(counter.fetch_add(1))))
               .string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// Shared fixture for the WAL properties: world + event log + the tables the
// batch reference needs.
struct WalStack {
  Stack s;
  infer::Ip2As ip2as;
  infer::OrgMap orgs;
  infer::AliasResolver aliases;
  std::vector<serve::IngestEvent> log;
  topo::Asn vp_as = 0;
  bool with_borders = false;

  explicit WalStack(const GeneratorConfig& cfg)
      : s(cfg),
        ip2as(*s.world.topo),
        orgs(*s.world.topo),
        aliases(*s.world.topo, 0.9, cfg.seed) {
    auto schedule = dense_schedule(s.world, 2);
    measure::NdtCampaign campaign(s.world, s.fwd, s.model, s.mlab,
                                  measure::CampaignConfig{});
    util::Rng rng(cfg.seed ^ 0x3a1ull);
    log = serve::event_log_from(campaign.run_columnar(schedule, rng));
    vp_as = s.world.ark_vps.empty()
                ? 0
                : s.world.topo->host(s.world.ark_vps[0]).asn;
    with_borders = !s.world.ark_vps.empty();
  }

  serve::ServiceSnapshot batch(const std::vector<serve::IngestEvent>& events,
                               std::size_t prefix) const {
    return batch_snapshot(events, prefix, ip2as, orgs, vp_as,
                          with_borders ? &s.world.topo->relationships()
                                       : nullptr,
                          with_borders ? &aliases : nullptr,
                          infer::MapItConfig{});
  }

  // Replays `events` through a fresh service and returns the snapshot.
  serve::ServiceSnapshot replay(const std::vector<serve::IngestEvent>& events,
                                std::size_t shards, std::string* error) const {
    serve::ServeConfig scfg;
    scfg.shards = shards;
    scfg.queue_capacity = 64;
    scfg.policy = serve::OverflowPolicy::kBlock;
    scfg.vp_as = vp_as;
    serve::IngestService svc(ip2as, orgs, scfg);
    if (with_borders) {
      svc.set_relationships(&s.world.topo->relationships(), &aliases);
    }
    svc.start();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!svc.submit(events[i])) {
        *error = format("replay shards=%zu: submit rejected event %zu",
                        shards, i);
        return {};
      }
    }
    return svc.drain_and_stop();
  }
};

// Frames that end at or before `limit` bytes into the segment file — the
// records recovery is guaranteed to keep when corruption lands at `limit`
// or later.
std::size_t frames_before(const std::string& path, std::uint64_t limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (data.size() < serve::kWalMagicBytes || limit < serve::kWalMagicBytes) {
    return 0;
  }
  std::size_t off = serve::kWalMagicBytes;
  std::size_t n = 0;
  while (off < data.size()) {
    serve::FrameView frame;
    std::size_t consumed = 0;
    if (serve::parse_frame(data.data() + off, data.size() - off, &frame,
                           &consumed) != serve::FrameError::kNone) {
      break;
    }
    if (off + consumed > limit) break;
    off += consumed;
    ++n;
  }
  return n;
}

// A crashed daemon restarts from its WAL: recovery must yield an exact
// prefix of the event log, and replaying it — for any shard count — must be
// bit-identical to a batch run over that prefix. The crash is simulated by
// truncating the newest segment at a random byte offset, which covers both
// a clean shutdown (cut at EOF) and a mid-frame torn write.
std::string check_wal_recovery_equals_batch(const GeneratorConfig& cfg) {
  WalStack w(cfg);
  if (w.log.empty()) return "";
  util::Rng pick(cfg.seed ^ 0x7a15ull);
  std::size_t prefix = static_cast<std::size_t>(
      pick.uniform_int(1, static_cast<std::int64_t>(w.log.size())));

  TempDir dir(cfg.seed);
  {
    // Feed the live path: a service with an attached writer, one producer,
    // so the on-disk order is the log order.
    serve::WalWriter writer;
    serve::WalOptions wopt;
    wopt.segment_bytes = 4096;  // small: several segments, rotation covered
    util::Status st = writer.open(dir.path, wopt);
    if (!st.ok()) return "wal open: " + st.error();
    serve::ServeConfig scfg;
    scfg.shards = 2;
    scfg.queue_capacity = 64;
    scfg.vp_as = w.vp_as;
    serve::IngestService svc(w.ip2as, w.orgs, scfg);
    svc.attach_wal(&writer);
    svc.start();
    for (std::size_t i = 0; i < prefix; ++i) {
      if (!svc.submit(w.log[i])) {
        return format("durable submit rejected event %zu", i);
      }
    }
    (void)svc.drain_and_stop();
    serve::ServiceCounters c = svc.counters();
    if (c.wal_rejected != 0) {
      return format("wal rejected %llu events with no faults",
                    static_cast<unsigned long long>(c.wal_rejected));
    }
  }

  // The crash: the tail of the newest segment never made it to disk.
  std::vector<std::string> segments = serve::wal_segments(dir.path);
  if (segments.empty()) return "no wal segments written";
  std::error_code ec;
  std::uint64_t size = std::filesystem::file_size(segments.back(), ec);
  std::uint64_t cut = static_cast<std::uint64_t>(
      pick.uniform_int(0, static_cast<std::int64_t>(size)));
  std::filesystem::resize_file(segments.back(), cut, ec);
  if (ec) return "resize_file: " + ec.message();
  std::size_t survivors = 0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    survivors += frames_before(segments[i],
                               std::numeric_limits<std::uint64_t>::max());
  }
  survivors += frames_before(segments.back(), cut);

  util::Result<serve::WalRecovery> rec = serve::recover_wal(dir.path, true);
  if (!rec.ok()) return "recover_wal: " + rec.error();
  std::size_t n = rec->events.size();
  if (n > prefix) return format("recovered %zu > %zu written", n, prefix);
  if (n != survivors) {
    return format("recovered %zu events, %zu frames survive the cut", n,
                  survivors);
  }
  if (cut >= size && n != prefix) {
    return format("uncut log recovered %zu of %zu events", n, prefix);
  }
  if (serve::fingerprint(rec->events, n) != serve::fingerprint(w.log, n)) {
    return format("recovered events are not the log prefix (n=%zu)", n);
  }
  // Repair left a log a fresh scan reads back clean.
  util::Result<serve::WalRecovery> rescan = serve::recover_wal(dir.path,
                                                               false);
  if (!rescan.ok()) return "rescan: " + rescan.error();
  if (rescan->truncated_tail || rescan->events.size() != n) {
    return format("post-repair rescan dirty (tail=%d, %zu != %zu)",
                  rescan->truncated_tail ? 1 : 0, rescan->events.size(), n);
  }

  // Replay across shard counts: each must equal the batch reference over
  // the surviving prefix, bit for bit.
  serve::ServiceSnapshot batch = w.batch(w.log, n);
  const std::size_t shard_counts[] = {1, 2, 0};
  for (std::size_t shards : shard_counts) {
    std::string error;
    serve::ServiceSnapshot snap = w.replay(rec->events, shards, &error);
    if (!error.empty()) return error;
    if (snap.fingerprint != batch.fingerprint) {
      return format("shards=%zu: recovered snapshot %016llx != batch %016llx "
                    "over %zu surviving events",
                    shards, static_cast<unsigned long long>(snap.fingerprint),
                    static_cast<unsigned long long>(batch.fingerprint), n);
    }
  }

  // The repaired log accepts appends: a reopened writer lands in a fresh
  // segment and the next recovery sees old + new.
  if (n < w.log.size()) {
    serve::WalWriter writer;
    util::Status st = writer.open(dir.path, serve::WalOptions{});
    if (!st.ok()) return "reopen: " + st.error();
    st = writer.append(w.log[n]);
    if (!st.ok()) return "append after repair: " + st.error();
    writer.close();
    util::Result<serve::WalRecovery> rec2 = serve::recover_wal(dir.path,
                                                               true);
    if (!rec2.ok()) return "recover after append: " + rec2.error();
    if (rec2->events.size() != n + 1 ||
        serve::fingerprint(rec2->events, n + 1) !=
            serve::fingerprint(w.log, n + 1)) {
      return format("append after repair lost events (%zu != %zu)",
                    rec2->events.size(), n + 1);
    }
  }
  return "";
}

// Arbitrary single-bit corruption anywhere in the log — headers, payloads,
// even the segment magic — must never crash recovery, and must yield an
// exact log prefix that keeps at least every frame ending before the
// flipped byte's frame.
std::string check_wal_torn_tail(const GeneratorConfig& cfg) {
  WalStack w(cfg);
  if (w.log.empty()) return "";
  TempDir dir(cfg.seed);
  {
    serve::WalWriter writer;
    serve::WalOptions wopt;
    wopt.segment_bytes = 2048;
    util::Status st = writer.open(dir.path, wopt);
    if (!st.ok()) return "wal open: " + st.error();
    for (const serve::IngestEvent& ev : w.log) {
      st = writer.append(ev);
      if (!st.ok()) return "append: " + st.error();
    }
    writer.close();
  }

  // Uncorrupted, the disk round-trip is bit-exact: codec encode/decode is
  // the identity on the event stream.
  util::Result<serve::WalRecovery> clean = serve::recover_wal(dir.path,
                                                              false);
  if (!clean.ok()) return "clean recover: " + clean.error();
  if (clean->truncated_tail || clean->events.size() != w.log.size() ||
      serve::fingerprint(clean->events, clean->events.size()) !=
          serve::fingerprint(w.log, w.log.size())) {
    return format("clean round-trip mismatch: %zu events vs %zu written",
                  clean->events.size(), w.log.size());
  }

  // Flip one random bit in one random segment.
  std::vector<std::string> segments = serve::wal_segments(dir.path);
  if (segments.empty()) return "no wal segments";
  util::Rng pick(cfg.seed ^ 0xf11bull);
  std::size_t si = static_cast<std::size_t>(
      pick.uniform_int(0, static_cast<std::int64_t>(segments.size()) - 1));
  std::error_code ec;
  std::uint64_t size = std::filesystem::file_size(segments[si], ec);
  if (size == 0) return "empty segment";
  std::uint64_t at = static_cast<std::uint64_t>(
      pick.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  int bit = static_cast<int>(pick.uniform_int(0, 7));
  {
    std::fstream f(segments[si],
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    f.get(byte);
    byte = static_cast<char>(byte ^ (1 << bit));
    f.seekp(static_cast<std::streamoff>(at));
    f.put(byte);
  }

  // Every frame that ends strictly before the flipped byte must survive;
  // a flip inside the magic voids the whole segment.
  std::size_t guaranteed = 0;
  for (std::size_t i = 0; i < si; ++i) {
    guaranteed += frames_before(segments[i],
                                std::numeric_limits<std::uint64_t>::max());
  }
  if (at >= serve::kWalMagicBytes) guaranteed += frames_before(segments[si], at);

  util::Result<serve::WalRecovery> rec = serve::recover_wal(dir.path, true);
  if (!rec.ok()) return "recover after flip: " + rec.error();
  std::size_t n = rec->events.size();
  if (n > w.log.size()) return format("recovered %zu > written", n);
  if (n < guaranteed) {
    return format("flip at seg %zu offset %llu lost pre-flip frames: "
                  "recovered %zu < guaranteed %zu",
                  si, static_cast<unsigned long long>(at), n, guaranteed);
  }
  if (serve::fingerprint(rec->events, n) != serve::fingerprint(w.log, n)) {
    return format("post-flip recovery is not a log prefix (n=%zu)", n);
  }
  if (!rec->truncated_tail) {
    // A flip the scan never tripped over can only mean the CRC of some
    // frame still matched — with full-frame coverage that is a broken
    // checksum, not luck.
    return format("bit flip at seg %zu offset %llu went undetected", si,
                  static_cast<unsigned long long>(at));
  }
  // The repaired log is clean and still appendable.
  util::Result<serve::WalRecovery> rescan = serve::recover_wal(dir.path,
                                                               false);
  if (!rescan.ok()) return "rescan: " + rescan.error();
  if (rescan->truncated_tail || rescan->events.size() != n) {
    return "post-repair rescan dirty";
  }
  serve::WalWriter writer;
  util::Status st = writer.open(dir.path, serve::WalOptions{});
  if (!st.ok()) return "reopen after repair: " + st.error();
  st = writer.append(w.log[0]);
  if (!st.ok()) return "append after repair: " + st.error();
  writer.close();
  util::Result<serve::WalRecovery> rec2 = serve::recover_wal(dir.path, true);
  if (!rec2.ok()) return "final recover: " + rec2.error();
  if (rec2->events.size() != n + 1) {
    return format("append after flip repair: %zu != %zu", rec2->events.size(),
                  n + 1);
  }
  return "";
}

// Eviction is deterministic: the watermark is a pure function of the
// stream position and the retention config — never wall clock — so a
// snapshot under retention equals a batch run over the retained suffix,
// for any shard count, and taking extra snapshots mid-stream changes
// nothing about the final state.
std::string check_eviction_watermark(const GeneratorConfig& cfg) {
  WalStack w(cfg);
  std::size_t n = w.log.size();
  if (n < 8) return "";
  util::Rng pick(cfg.seed ^ 0xe51cull);
  std::uint64_t epoch_events =
      static_cast<std::uint64_t>(pick.uniform_int(4, 64));
  std::uint64_t retain = static_cast<std::uint64_t>(pick.uniform_int(1, 4));
  std::uint64_t last_epoch = (n - 1) / epoch_events;
  std::uint64_t wm_epoch =
      last_epoch + 1 > retain ? last_epoch + 1 - retain : 0;
  std::uint64_t watermark = wm_epoch * epoch_events;

  std::vector<serve::IngestEvent> suffix(
      w.log.begin() + static_cast<std::ptrdiff_t>(watermark), w.log.end());
  serve::ServiceSnapshot batch = w.batch(suffix, suffix.size());

  const std::size_t shard_counts[] = {1, 2, 0};
  for (std::size_t shards : shard_counts) {
    serve::ServeConfig scfg;
    scfg.shards = shards;
    scfg.queue_capacity = 64;
    scfg.vp_as = w.vp_as;
    scfg.epoch_events = epoch_events;
    scfg.retain_epochs = retain;
    serve::IngestService svc(w.ip2as, w.orgs, scfg);
    if (w.with_borders) {
      svc.set_relationships(&w.s.world.topo->relationships(), &w.aliases);
    }
    svc.start();
    // In-order submission: seq == log index, so the watermark is a log
    // offset. A mid-stream snapshot on one shard count proves history
    // independence: early eviction must not change the final state.
    for (std::size_t i = 0; i < n; ++i) {
      if (!svc.submit(w.log[i])) {
        return format("shards=%zu: submit rejected event %zu", shards, i);
      }
      if (shards == 2 && i == n / 2) (void)svc.snapshot();
    }
    serve::ServiceSnapshot snap = svc.drain_and_stop();
    if (snap.events_total != n) {
      return format("shards=%zu: events_total %llu != %zu", shards,
                    static_cast<unsigned long long>(snap.events_total), n);
    }
    if (snap.eviction_watermark != watermark) {
      return format("shards=%zu: watermark %llu != expected %llu (E=%llu "
                    "R=%llu N=%zu)",
                    shards,
                    static_cast<unsigned long long>(snap.eviction_watermark),
                    static_cast<unsigned long long>(watermark),
                    static_cast<unsigned long long>(epoch_events),
                    static_cast<unsigned long long>(retain), n);
    }
    if (snap.events_evicted != watermark) {
      return format("shards=%zu: evicted %llu != watermark %llu", shards,
                    static_cast<unsigned long long>(snap.events_evicted),
                    static_cast<unsigned long long>(watermark));
    }
    if (snap.events_consumed != n - watermark) {
      return format("shards=%zu: retained %llu != %zu", shards,
                    static_cast<unsigned long long>(snap.events_consumed),
                    n - static_cast<std::size_t>(watermark));
    }
    if (snap.fingerprint != batch.fingerprint) {
      return format("shards=%zu: evicted snapshot %016llx != batch over "
                    "suffix %016llx",
                    shards, static_cast<unsigned long long>(snap.fingerprint),
                    static_cast<unsigned long long>(batch.fingerprint));
    }
  }
  return "";
}

Property world_property(const char* name, const char* summary, int iters,
                        std::string (*fn)(const GeneratorConfig&)) {
  Property p;
  p.name = name;
  p.family = "ingest";
  p.summary = summary;
  p.default_iterations = iters;
  std::string pname = p.name;
  p.run = [pname, fn](util::pbt::Config cfg) {
    return util::pbt::check<GeneratorConfig>(pname, config_domain(), fn, cfg);
  };
  return p;
}

}  // namespace

void register_ingest_properties(std::vector<Property>& out) {
  out.push_back(world_property(
      "ingest.snapshot_equals_batch",
      "service snapshot bit-identical to a batch run over the same event "
      "prefix, for any interleaving and shard count",
      3, check_snapshot_equals_batch));
  out.push_back(world_property(
      "ingest.drop_policy_accounting",
      "submitted = enqueued + dropped under both overflow policies; flush "
      "conserves the enqueued stream",
      3, check_drop_policy_accounting));
  out.push_back(world_property(
      "ingest.wal_recovery_equals_batch",
      "after a crash (random tail truncation), WAL recovery + replay is "
      "bit-identical to a batch run over the surviving log prefix, for "
      "shard counts {1, 2, hw}",
      3, check_wal_recovery_equals_batch));
  out.push_back(world_property(
      "ingest.wal_torn_tail",
      "a random bit flip anywhere in the log never crashes recovery, "
      "yields an exact log prefix keeping every pre-flip frame, and the "
      "repaired log is clean and appendable",
      3, check_wal_torn_tail));
  out.push_back(world_property(
      "ingest.eviction_watermark_deterministic",
      "the eviction watermark is a pure function of stream position and "
      "retention config; snapshots under retention equal a batch run over "
      "the retained suffix for any shard count",
      3, check_eviction_watermark));
}

}  // namespace netcong::check
