#pragma once

// Deterministic fault injection for the measurement pipeline.
//
// The paper's central caveat is that real crowdsourced pipelines are lossy:
// only 71-87% of NDT tests could be matched to a traceroute because a
// single-threaded daemon silently drops work (Section 4.1), and sample
// sparsity corrupts the statistics (Section 6). The seed pipeline modeled
// only the daemon failure; this subsystem injects every other failure mode
// the platforms documented, at named sites, so each inference stage can be
// tested against the degraded corpora it would see in production.
//
// Determinism contract (extends the PR-1 campaign contract): every fault
// decision is a pure function of (master seed, injection site, item id) —
// a fresh Rng forked on the site then the item, never a shared sequential
// stream — so a faulted campaign is bit-identical across thread counts,
// scheduling orders, and path-cache on/off.
//
// The disabled injector is near-zero-cost: every site check short-circuits
// on `enabled()` before touching an Rng.

#include <cstdint>
#include <string>
#include <vector>

#include "topo/ip.h"
#include "topo/ids.h"
#include "util/result.h"
#include "util/rng.h"

namespace netcong::sim {

// Named injection sites. Values are the fork-stream family of the site and
// must stay stable: changing one reshuffles every faulted campaign.
enum class FaultSite : std::uint64_t {
  kServerOutage = 1,    // scheduled M-Lab/Speedtest server outage windows
  kServerFlap = 2,      // short repeated down-windows (flapping server)
  kNdtAbort = 3,        // NDT test aborts before producing a measurement
  kNdtTruncate = 4,     // mid-test truncation: throughput from partial data
  kTracerouteCrash = 5, // traceroute daemon crash + restart delay
  kProbeLoss = 6,       // per-probe loss beyond the base star model
  kWebStatsDrop = 7,    // WebStats fields dropped from the test record
  kPrefix2AsStale = 8,  // stale prefix2AS entries (wrong origin ASN)
  kRetryBackoff = 9,    // client-side retry backoff draws
  // Ingest durability sites (DESIGN.md §12): the serve subsystem's WAL and
  // socket front-end compose with the same deterministic injector.
  kWalTornWrite = 10,   // process dies mid-append: partial frame on disk
  kWalFsyncFail = 11,   // fsync returns an error; append stays page-cached
  kNetShortRead = 12,   // socket delivers frames in tiny chunks
  kNetDisconnect = 13,  // producer disconnects mid-frame
};

const char* fault_site_name(FaultSite site);
const char* fault_site_description(FaultSite site);
const std::vector<FaultSite>& all_fault_sites();

struct FaultConfig {
  // Master switch; when false the injector is inert and near-free.
  bool enabled = false;

  // -- server outages (site kServerOutage / kServerFlap) --
  // Fraction of servers with one scheduled outage window inside the
  // horizon, and its length.
  double server_outage_fraction = 0.0;
  double outage_duration_hours = 12.0;
  double outage_horizon_hours = 14.0 * 24.0;
  // Fraction of servers that flap: down for flap_down_hours out of every
  // flap_period_hours, at a per-server phase.
  double server_flap_fraction = 0.0;
  double flap_period_hours = 8.0;
  double flap_down_hours = 0.5;

  // -- client-side retry on outage (site kRetryBackoff) --
  // A client whose chosen server is down retries against the next-nearest
  // server after a deterministic backoff, up to max_retries extra attempts.
  int max_retries = 2;
  double backoff_base_s = 30.0;

  // -- per-test faults (sites kNdtAbort / kNdtTruncate / kWebStatsDrop) --
  double ndt_abort_prob = 0.0;
  double ndt_truncate_prob = 0.0;
  double webstats_drop_prob = 0.0;

  // -- traceroute daemon (site kTracerouteCrash) --
  // A crash loses the due traceroute and keeps the daemon down for
  // daemon_restart_s (subsequent traceroutes in the window are busy-lost).
  double daemon_crash_prob = 0.0;
  double daemon_restart_s = 300.0;

  // -- probe loss (site kProbeLoss) --
  // Fraction of traceroutes crossing a lossy path; those run with the base
  // star probability raised by probe_loss_extra_star.
  double probe_loss_prob = 0.0;
  double probe_loss_extra_star = 0.25;

  // -- datasets (site kPrefix2AsStale) --
  // Fraction of announced prefixes whose origin ASN is stale (re-originated
  // by a deterministic wrong AS drawn from the announced set).
  double prefix2as_stale_fraction = 0.0;

  // -- ingest durability (sites kWalTornWrite / kWalFsyncFail) --
  // Per-append probability the process "dies" mid-write, leaving a torn
  // frame at the segment tail (the writer then refuses further appends,
  // like the dead process it models), and per-sync probability that fsync
  // fails (the append survives only in the page cache).
  double wal_torn_write_prob = 0.0;
  double wal_fsync_fail_prob = 0.0;

  // -- socket front-end (sites kNetShortRead / kNetDisconnect) --
  // Per-connection probability the server's reads arrive in 1-3 byte
  // chunks (framing reassembly stress), and per-event probability a client
  // disconnects after sending only part of a frame.
  double net_short_read_prob = 0.0;
  double net_disconnect_prob = 0.0;

  // A one-knob severity preset: s in [0,1] scales every site's rate.
  static FaultConfig scaled(double severity);
};

// Parses a CLI-style severity ("0.2") into a scaled FaultConfig.
util::Result<FaultConfig> parse_fault_severity(const std::string& text);

// Per-campaign data-quality report. Every attempted unit of work ends up in
// exactly one terminal bucket — "attempted = completed + classified
// excluded" is the invariant consistent() checks and tests enforce: the
// pipeline may degrade, but it may never silently drop a record.
struct DataQuality {
  // NDT tests: attempted = completed + aborted + unserved + failed.
  std::size_t tests_attempted = 0;
  std::size_t tests_completed = 0;
  std::size_t tests_aborted = 0;   // abort fault or server flap mid-test
  std::size_t tests_unserved = 0;  // every candidate server down
  std::size_t tests_failed = 0;    // internal error, classified not thrown
  std::size_t tests_truncated = 0; // subset of completed (flagged records)
  std::size_t tests_retried = 0;   // tests that needed >= 1 retry to run
  std::size_t retry_attempts = 0;  // total extra attempts drawn
  std::size_t webstats_dropped = 0;  // completed tests missing WebStats
  std::size_t fields_dropped = 0;    // individual WebStats fields dropped

  // Traceroutes: scheduled = completed + lost_*. Cache suppression is the
  // platform working as designed, so it is counted beside, not inside.
  std::size_t traceroutes_scheduled = 0;
  std::size_t traceroutes_completed = 0;
  std::size_t traceroutes_lost_busy = 0;
  std::size_t traceroutes_lost_failed = 0;  // collection brownout
  std::size_t traceroutes_lost_crash = 0;   // daemon crash fault
  std::size_t traceroutes_suppressed_cached = 0;
  std::size_t traceroutes_degraded = 0;  // ran with injected probe loss

  // Socket ingest (serve/net): received = ok + rejected, and every ok
  // frame's event is either submitted or classified dropped — the
  // socket-layer share of the conserved drop-policy accounting.
  std::size_t ingest_frames_ok = 0;
  std::size_t ingest_frames_rejected = 0;
  std::size_t ingest_events_submitted = 0;
  std::size_t ingest_events_dropped = 0;

  bool consistent() const {
    return tests_attempted == tests_completed + tests_aborted +
                                  tests_unserved + tests_failed &&
           traceroutes_scheduled == traceroutes_completed +
                                        traceroutes_lost_busy +
                                        traceroutes_lost_failed +
                                        traceroutes_lost_crash &&
           tests_truncated <= tests_completed &&
           webstats_dropped <= tests_completed &&
           ingest_frames_ok == ingest_events_submitted + ingest_events_dropped;
  }

  bool operator==(const DataQuality& o) const = default;

  // (metric, value) rows for tables/CSV, in a stable order.
  std::vector<std::pair<std::string, std::size_t>> rows() const;
};

class FaultInjector {
 public:
  FaultInjector(FaultConfig config, std::uint64_t seed);

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  // The decision streams. Each call builds a fresh generator from
  // (seed, site, item); callers that need several draws for one decision
  // take the stream once and draw from it.
  [[nodiscard]] util::Rng stream(FaultSite site, std::uint64_t item) const;
  bool fires(FaultSite site, std::uint64_t item, double prob) const;

  // Scheduled-outage model: is this server down at this time? Pure function
  // of (seed, server, time); callable concurrently.
  bool server_down(std::uint32_t server, double utc_time_hours) const;

  // Announced-prefix degradation: the input list with a deterministic
  // prefix2as_stale_fraction of entries re-originated to another announced
  // origin. Feed the result to infer::Ip2As to build a stale BGP view.
  std::vector<std::pair<topo::Prefix, topo::Asn>> degrade_prefix2as(
      const std::vector<std::pair<topo::Prefix, topo::Asn>>& announced) const;

 private:
  FaultConfig config_;
  util::Rng root_;
};

}  // namespace netcong::sim
