// The WAL and its codec (DESIGN.md §12): frame round-trips are bit-exact,
// every malformed input gets a typed classification (never a crash or an
// over-read), segments rotate and recover, and the deterministic fault
// sites — torn write, fsync failure — behave like the crashes they model.
// The ingest.wal_* properties drive the same contracts on random worlds;
// these tests pin them on the cached tiny world with hand-placed damage so
// a failure localizes to one code path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
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
#include "serve/wal.h"
#include "sim/faults.h"
#include "sim/throughput.h"

namespace netcong::serve {
namespace {

namespace fs = std::filesystem;

struct Stack {
  explicit Stack(const gen::World& w)
      : world(w),
        bgp(*w.topo),
        fwd(*w.topo, bgp),
        model(*w.topo, *w.traffic),
        mlab("mlab", *w.topo, w.mlab_servers) {}
  const gen::World& world;
  route::BgpRouting bgp;
  route::Forwarder fwd;
  sim::ThroughputModel model;
  measure::Platform mlab;
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
    util::Rng rng(20170401);
    return event_log_from(campaign.run_columnar(schedule, rng));
  }();
  return log;
}

// A scratch directory removed on scope exit.
struct TempDir {
  TempDir() {
    static int counter = 0;
    path = (fs::temp_directory_path() /
            ("netcong-waltest-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

TEST(CodecTest, RoundTripIsBitExact) {
  const auto& log = event_log();
  ASSERT_FALSE(log.empty());
  std::vector<IngestEvent> decoded;
  for (const IngestEvent& ev : log) {
    std::vector<std::uint8_t> buf;
    append_frame(ev, buf);
    ASSERT_GE(buf.size(), kFrameHeaderBytes);
    // Header invariants: version byte, kind = variant index, reserved zero.
    EXPECT_EQ(buf[8], kFrameVersion);
    EXPECT_EQ(buf[9], is_ndt(ev) ? 0 : 1);
    EXPECT_EQ(buf[10], 0);
    EXPECT_EQ(buf[11], 0);
    FrameView frame;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_frame(buf.data(), buf.size(), &frame, &consumed),
              FrameError::kNone);
    EXPECT_EQ(consumed, buf.size());
    util::Result<IngestEvent> back = decode_event(frame);
    ASSERT_TRUE(back.ok()) << back.error();
    decoded.push_back(std::move(back.value()));
  }
  // fingerprint hashes every field of every record: equality here is the
  // bit-exactness proof WAL replay relies on.
  EXPECT_EQ(fingerprint(decoded, decoded.size()),
            fingerprint(log, log.size()));
}

TEST(CodecTest, EveryDamageModeGetsATypedError) {
  std::vector<std::uint8_t> buf;
  append_frame(event_log().front(), buf);
  FrameView frame;
  std::size_t consumed = 0;

  // Truncation at every possible split point: always kTruncated, and
  // consumed stays 0 (nothing may be skipped on an incomplete frame).
  for (std::size_t n = 0; n < buf.size(); ++n) {
    consumed = 1;
    EXPECT_EQ(parse_frame(buf.data(), n, &frame, &consumed),
              FrameError::kTruncated)
        << "prefix " << n;
    EXPECT_EQ(consumed, 0u);
  }

  auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = buf;
    bad[offset] = value;
    return parse_frame(bad.data(), bad.size(), &frame, &consumed);
  };
  // Version and reserved bytes are checked before the CRC so a torn header
  // classifies precisely.
  EXPECT_EQ(corrupt(8, 99), FrameError::kBadVersion);
  EXPECT_EQ(corrupt(10, 1), FrameError::kBadVersion);
  EXPECT_EQ(corrupt(9, 7), FrameError::kBadKind);
  // A flipped payload byte is a checksum mismatch.
  EXPECT_EQ(corrupt(kFrameHeaderBytes, buf[kFrameHeaderBytes] ^ 0x40),
            FrameError::kBadChecksum);
  // A flipped *kind* byte within the known range must also be caught — the
  // CRC covers it, so an NDT record can never decode as a traceroute.
  {
    std::vector<std::uint8_t> bad = buf;
    bad[9] ^= 1;
    EXPECT_EQ(parse_frame(bad.data(), bad.size(), &frame, &consumed),
              FrameError::kBadChecksum);
  }
  // A declared length beyond the cap is rejected before any allocation.
  {
    std::vector<std::uint8_t> bad = buf;
    std::uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(bad.data(), &huge, sizeof(huge));
    EXPECT_EQ(parse_frame(bad.data(), bad.size(), &frame, &consumed),
              FrameError::kOversize);
  }
  // Every error has a printable name.
  for (FrameError e :
       {FrameError::kNone, FrameError::kTruncated, FrameError::kBadVersion,
        FrameError::kBadKind, FrameError::kOversize, FrameError::kBadChecksum,
        FrameError::kBadPayload}) {
    EXPECT_NE(frame_error_name(e), nullptr);
    EXPECT_GT(std::strlen(frame_error_name(e)), 0u);
  }
}

TEST(CodecTest, ValidFrameWithGarbagePayloadFailsDecodeNotParse) {
  // Hand-build a frame whose header and CRC are self-consistent but whose
  // payload is not a serialized record: parse accepts it (the bytes are
  // intact), decode must classify it without over-reading.
  std::vector<std::uint8_t> payload = {0xff, 0xff, 0xff, 0xff};
  std::vector<std::uint8_t> buf(kFrameHeaderBytes);
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(buf.data(), &len, sizeof(len));
  buf[8] = kFrameVersion;
  buf[9] = 0;  // NDT
  buf[10] = buf[11] = 0;
  buf.insert(buf.end(), payload.begin(), payload.end());
  std::uint32_t crc = crc32c(buf.data() + 8, 4 + payload.size());
  std::memcpy(buf.data() + 4, &crc, sizeof(crc));

  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_frame(buf.data(), buf.size(), &frame, &consumed),
            FrameError::kNone);
  EXPECT_FALSE(decode_event(frame).ok());
}

TEST(WalWriterTest, RotatesSegmentsAndRecoversEverything) {
  TempDir dir;
  const auto& log = event_log();
  ASSERT_GT(log.size(), 4u);

  WalWriter wal;
  WalOptions opts;
  opts.segment_bytes = 512;  // force many rotations
  ASSERT_TRUE(wal.open(dir.path, opts).ok());
  for (const IngestEvent& ev : log) {
    ASSERT_TRUE(wal.append(ev).ok());
  }
  ASSERT_TRUE(wal.sync().ok());
  WalStats st = wal.stats();
  EXPECT_EQ(st.appended, log.size());
  EXPECT_GT(st.segments_created, 1u);
  EXPECT_EQ(st.torn_writes, 0u);
  wal.close();
  EXPECT_FALSE(wal.is_open());

  std::vector<std::string> segs = wal_segments(dir.path);
  EXPECT_EQ(segs.size(), st.segments_created);
  // Every segment holds the magic plus at least one record.
  for (const std::string& s : segs) EXPECT_GT(file_size(s), kWalMagicBytes);

  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  EXPECT_FALSE(rec.value().truncated_tail);
  EXPECT_EQ(rec.value().segments_scanned, segs.size());
  ASSERT_EQ(rec.value().events.size(), log.size());
  EXPECT_EQ(fingerprint(rec.value().events, log.size()),
            fingerprint(log, log.size()));
}

TEST(WalWriterTest, ReopenNeverTouchesOldSegments) {
  TempDir dir;
  const auto& log = event_log();
  std::size_t half = log.size() / 2;
  ASSERT_GT(half, 0u);

  WalOptions opts;
  opts.segment_bytes = 1024;
  {
    WalWriter first;
    ASSERT_TRUE(first.open(dir.path, opts).ok());
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(first.append(log[i]).ok());
    }
  }
  std::vector<std::string> before = wal_segments(dir.path);
  std::vector<std::uint64_t> sizes_before;
  for (const std::string& s : before) sizes_before.push_back(file_size(s));

  {
    WalWriter second;
    ASSERT_TRUE(second.open(dir.path, opts).ok());
    for (std::size_t i = half; i < log.size(); ++i) {
      ASSERT_TRUE(second.append(log[i]).ok());
    }
  }
  // The first writer's segments are byte-identical in size — the second
  // writer started a strictly newer segment.
  std::vector<std::string> after = wal_segments(dir.path);
  ASSERT_GT(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);
    EXPECT_EQ(file_size(after[i]), sizes_before[i]);
  }

  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  ASSERT_EQ(rec.value().events.size(), log.size());
  EXPECT_EQ(fingerprint(rec.value().events, log.size()),
            fingerprint(log, log.size()));
}

TEST(WalRecoveryTest, MissingAndEmptyDirs) {
  TempDir dir;
  EXPECT_FALSE(recover_wal(dir.path + "/nope").ok());
  fs::create_directories(dir.path);
  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  EXPECT_TRUE(rec.value().events.empty());
  EXPECT_FALSE(rec.value().truncated_tail);
}

TEST(WalRecoveryTest, TornTailIsTruncatedAndRescansClean) {
  TempDir dir;
  const auto& log = event_log();
  WalWriter wal;
  WalOptions opts;
  opts.segment_bytes = 1u << 20;  // keep everything in one segment
  ASSERT_TRUE(wal.open(dir.path, opts).ok());
  for (const IngestEvent& ev : log) ASSERT_TRUE(wal.append(ev).ok());
  wal.close();

  std::vector<std::string> segs = wal_segments(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  // Cut the segment mid-way through its last frame: header survives, so
  // recovery sees a truncated frame, not a checksum error.
  std::uint64_t size = file_size(segs[0]);
  fs::resize_file(segs[0], size - 3);

  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  ASSERT_EQ(rec.value().events.size(), log.size() - 1);
  EXPECT_TRUE(rec.value().truncated_tail);
  EXPECT_GT(rec.value().torn_bytes, 0u);
  EXPECT_FALSE(rec.value().tail_error.empty());
  EXPECT_EQ(fingerprint(rec.value().events, log.size() - 1),
            fingerprint(log, log.size() - 1));

  // Repair truncated the torn frame in place: a rescan is clean and the
  // repaired log accepts new appends after the surviving prefix.
  util::Result<WalRecovery> again = recover_wal(dir.path);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_FALSE(again.value().truncated_tail);
  EXPECT_EQ(again.value().events.size(), log.size() - 1);

  WalWriter reopened;
  ASSERT_TRUE(reopened.open(dir.path, opts).ok());
  ASSERT_TRUE(reopened.append(log.back()).ok());
  reopened.close();
  util::Result<WalRecovery> full = recover_wal(dir.path);
  ASSERT_TRUE(full.ok()) << full.error();
  ASSERT_EQ(full.value().events.size(), log.size());
}

TEST(WalRecoveryTest, BadMagicDropsTheSegmentAndEverythingAfter) {
  TempDir dir;
  const auto& log = event_log();
  WalWriter wal;
  WalOptions opts;
  opts.segment_bytes = 1024;
  ASSERT_TRUE(wal.open(dir.path, opts).ok());
  for (const IngestEvent& ev : log) ASSERT_TRUE(wal.append(ev).ok());
  wal.close();

  std::vector<std::string> segs = wal_segments(dir.path);
  ASSERT_GE(segs.size(), 3u);
  // Count the records that live strictly before the segment we damage.
  std::size_t damaged = segs.size() / 2;
  util::Result<WalRecovery> clean = recover_wal(dir.path, /*repair=*/false);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean.value().events.size(), log.size());
  {
    std::fstream f(segs[damaged],
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }

  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  EXPECT_TRUE(rec.value().truncated_tail);
  EXPECT_EQ(rec.value().tail_error, "bad segment magic");
  EXPECT_EQ(rec.value().segments_dropped, segs.size() - damaged);
  EXPECT_LT(rec.value().events.size(), log.size());
  std::size_t n = rec.value().events.size();
  EXPECT_EQ(fingerprint(rec.value().events, n), fingerprint(log, n));
  // Only the undamaged prefix of segments remains on disk.
  EXPECT_EQ(wal_segments(dir.path).size(), damaged);
  util::Result<WalRecovery> again = recover_wal(dir.path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().truncated_tail);
}

TEST(WalFaultTest, TornWriteKillsTheWriterAndLeavesARecoverablePrefix) {
  TempDir dir;
  const auto& log = event_log();
  ASSERT_GE(log.size(), 4u);

  // Two writers stage the crash deterministically: a clean one persists
  // the first two events, then one with torn-write probability 1 whose
  // very first append tears.
  {
    WalWriter clean;
    WalOptions opts;
    opts.segment_bytes = 1u << 20;
    ASSERT_TRUE(clean.open(dir.path, opts).ok());
    ASSERT_TRUE(clean.append(log[0]).ok());
    ASSERT_TRUE(clean.append(log[1]).ok());
  }
  sim::FaultConfig fcfg;
  fcfg.enabled = true;
  fcfg.wal_torn_write_prob = 1.0;
  sim::FaultInjector always(fcfg, 424242);
  WalWriter doomed;
  WalOptions opts;
  opts.segment_bytes = 1u << 20;
  opts.faults = &always;
  ASSERT_TRUE(doomed.open(dir.path, opts).ok());
  util::Status st = doomed.append(log[2]);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(doomed.failed());
  // The dead process never accepts more work.
  EXPECT_FALSE(doomed.append(log[3]).ok());
  WalStats stats = doomed.stats();
  EXPECT_EQ(stats.torn_writes, 1u);
  EXPECT_EQ(stats.appended, 0u);
  EXPECT_GT(stats.bytes_written, kWalMagicBytes);  // the partial frame
  doomed.close();

  // Recovery: the two clean events survive; the torn frame is cut.
  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  EXPECT_TRUE(rec.value().truncated_tail);
  ASSERT_EQ(rec.value().events.size(), 2u);
  EXPECT_EQ(fingerprint(rec.value().events, 2), fingerprint(log, 2));
}

TEST(WalFaultTest, InjectedFsyncFailureIsCountedNotFatal) {
  TempDir dir;
  const auto& log = event_log();
  sim::FaultConfig fcfg;
  fcfg.enabled = true;
  fcfg.wal_fsync_fail_prob = 1.0;
  sim::FaultInjector inj(fcfg, 7);

  WalWriter wal;
  WalOptions opts;
  opts.fsync_each_append = true;
  opts.faults = &inj;
  ASSERT_TRUE(wal.open(dir.path, opts).ok());
  std::size_t n = std::min<std::size_t>(log.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    // The append itself succeeds: data reached the page cache even though
    // every fsync "failed".
    ASSERT_TRUE(wal.append(log[i]).ok());
  }
  WalStats st = wal.stats();
  EXPECT_EQ(st.appended, n);
  EXPECT_EQ(st.syncs, n);
  EXPECT_EQ(st.fsync_failures, n);
  EXPECT_FALSE(wal.failed());
  wal.close();

  // Same-process recovery still sees everything (the cache is coherent);
  // whether it would survive power loss is exactly what the counter is
  // there to report.
  util::Result<WalRecovery> rec = recover_wal(dir.path);
  ASSERT_TRUE(rec.ok()) << rec.error();
  ASSERT_EQ(rec.value().events.size(), n);
  EXPECT_EQ(fingerprint(rec.value().events, n), fingerprint(log, n));
}

}  // namespace
}  // namespace netcong::serve
