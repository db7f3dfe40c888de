#pragma once

// NDT-style throughput tests and the measurement campaign that pairs them
// with server-side Paris traceroutes, reproducing the M-Lab pipeline of
// paper Section 2.1/4.1 — including the single-threaded traceroute daemon
// that silently skips traceroutes when busy, which is why only ~71-76% of
// NDT tests could be matched to a traceroute.
//
// There is one campaign engine, NdtCampaign::run_columnar, writing the
// columnar corpus of measure/corpus.h. It runs in three phases:
//   1. a sequential planning pass expanding requests into a flat test plan
//      (server selection per request);
//   2. a parallel test-simulation phase sharded across worker threads, each
//      test seeded by Rng::fork on its test id — output is bit-identical
//      for any thread count, including a fully serial run;
//   3. the traceroute-daemon pass, split in two: a sequential scheduling
//      sweep (whether a traceroute runs depends on when the previous one on
//      the same server finished — inherently time-ordered per server),
//      then a parallel pass simulating the selected traceroutes, whose
//      probe artifacts draw from their own per-test fork stream.
// NdtCampaign::run returns the same campaign as records (NdtRecord,
// TracerouteRecord): it materializes run_columnar's result in parallel.

#include <memory>
#include <vector>

#include "gen/workload.h"
#include "gen/world.h"
#include "measure/platform.h"
#include "measure/traceroute.h"
#include "route/forwarding.h"
#include "route/path_cache.h"
#include "sim/faults.h"
#include "sim/throughput.h"

namespace netcong::measure {

struct ColumnarCampaignResult;  // measure/corpus.h

// Terminal state of an attempted NDT test. Every planned test produces a
// record in exactly one state — degraded corpora carry their own exclusion
// evidence instead of silently losing rows.
enum class NdtStatus : std::uint8_t {
  kCompleted = 0,  // produced a measurement (possibly truncated/degraded)
  kAborted,        // failed mid-test (abort fault or server flap)
  kUnserved,       // every candidate server down after bounded retries
  kFailed,         // internal error, classified instead of thrown
};

const char* ndt_status_name(NdtStatus status);

struct NdtRecord {
  std::uint64_t test_id = 0;
  std::uint32_t client = 0;
  std::uint32_t server = 0;
  double utc_time_hours = 0.0;
  double download_mbps = 0.0;
  double upload_mbps = 0.0;
  double flow_rtt_ms = 0.0;
  double retrans_rate = 0.0;
  int congestion_signals = 0;
  topo::Asn client_asn = 0;
  topo::Asn server_asn = 0;
  NdtStatus status = NdtStatus::kCompleted;
  // Measurement taken on a partial transfer (mid-test truncation fault);
  // the value is kept but biased.
  bool truncated = false;
  // False when the WebStats fields (flow_rtt_ms, retrans_rate) were dropped
  // from the record; the fields read 0 and must not enter statistics.
  bool has_webstats = true;
  // Ground truth (not visible to inference): the downstream router path and
  // the binding bottleneck.
  route::RouterPath truth_path;
  topo::LinkId truth_bottleneck;
  bool truth_access_limited = false;

  bool completed() const { return status == NdtStatus::kCompleted; }
};

struct CampaignConfig {
  // NDT runs ~10s in each direction plus setup.
  double ndt_duration_s = 25.0;
  // Server-side traceroute duration (single-threaded daemon is busy for
  // this long; concurrent tests get no traceroute — Section 4.1).
  double traceroute_min_s = 20.0;
  double traceroute_max_s = 120.0;
  // Battle-for-the-Net mode: each request triggers back-to-back tests
  // against this many regional servers (1 = plain NDT).
  int servers_per_request = 1;
  // The server-side tracer caches results per client: it will not re-trace
  // a client it traced within this window (documented M-Lab behaviour; the
  // reason repeat tests only have a traceroute *before* them).
  double traceroute_cache_minutes = 10.0;
  // Daemon brownouts/overload: a due traceroute is silently dropped with
  // this probability (the platform's collection had documented gaps).
  double traceroute_failure_prob = 0.05;
  // Distinct ephemeral "ECMP bucket" ports a test's flow key draws from.
  // The router path depends on the port only through the flow hash, so a
  // few representative ports preserve the per-pair ECMP path diversity of
  // Section 4.3 while letting a PathCache hit on repeat pairs.
  int ecmp_buckets = 8;
  // Worker threads for the parallel test-simulation phase: 0 = default
  // (NETCONG_THREADS environment variable, else hardware concurrency),
  // 1 = fully serial. The output does not depend on this value.
  int threads = 0;
  TracerouteOptions traceroute;
};

struct CampaignResult {
  std::vector<NdtRecord> tests;
  std::vector<TracerouteRecord> traceroutes;
  std::size_t traceroutes_skipped_busy = 0;
  std::size_t traceroutes_skipped_cached = 0;
  std::size_t traceroutes_failed = 0;
  // Per-campaign accounting: every attempted test and due traceroute ends
  // in exactly one bucket (quality.consistent() holds by construction).
  sim::DataQuality quality;
};

class NdtCampaign {
 public:
  NdtCampaign(const gen::World& world, const route::Forwarder& fwd,
              const sim::ThroughputModel& model, const Platform& platform,
              CampaignConfig config);

  // Attaches a shared path memo (must outlive the campaign). Cached and
  // uncached runs produce identical results; the cache only removes
  // repeated path construction (see route::PathCache).
  void set_path_cache(const route::PathCache* cache) { cache_ = cache; }

  // Attaches a fault injector (must outlive the campaign). Null or a
  // disabled injector leaves the campaign untouched; an enabled one injects
  // server outages (with client retry/backoff to the next-nearest server),
  // test aborts/truncation, WebStats drops, daemon crashes with restart
  // delay, and per-probe loss — all drawn from (seed, site, item id)
  // streams, so faulted output stays bit-identical across thread counts.
  void set_faults(const sim::FaultInjector* faults) { faults_ = faults; }

  // Attaches an adversarial scenario (must outlive the campaign). Null or a
  // disabled scenario leaves the campaign byte-identical to the honest run;
  // an enabled one rewrites flow keys at its churn epoch (hot-potato
  // shifts), resolves post-epoch lookups through its withdrawn-link route
  // view, diverges probe paths from data paths (asymmetry), and cloaks
  // routers from traceroutes — all pure functions of (scenario seed, pair,
  // time), so adversarial output stays bit-identical across thread counts
  // and cache settings. Composes freely with set_faults.
  void set_adversary(const sim::AdversaryScenario* adversary) {
    adversary_ = adversary;
  }

  // Executes the schedule (must be time-sorted) into SoA columns with
  // interned paths and arena-backed hop spans, which cuts allocation and
  // memory by an order of magnitude at 1M+ tests compared with records.
  // Results are deterministic given the schedule and rng seed, independent
  // of config.threads.
  ColumnarCampaignResult run_columnar(
      const std::vector<gen::TestRequest>& schedule, util::Rng& rng) const;

  // run_columnar(schedule, rng) materialized into records, in parallel over
  // config.threads workers.
  CampaignResult run(const std::vector<gen::TestRequest>& schedule,
                     util::Rng& rng) const;

  // Runs a single test at the given time against a chosen server.
  NdtRecord run_single(std::uint32_t client, std::uint32_t server,
                       double utc_time_hours, std::uint64_t test_id,
                       util::Rng& rng) const;

  // Copy-free core of run_single: the scalar measurement plus shared
  // ownership of the (possibly invalid) downstream path and the path's
  // cache identity, so the campaign interns the path instead of copying
  // its three vectors into every record. Draw sequence is identical to
  // run_single's (bucket, then the throughput model when the path is valid).
  struct SingleOutcome {
    double download_mbps = 0.0;
    double upload_mbps = 0.0;
    double flow_rtt_ms = 0.0;
    double retrans_rate = 0.0;
    int congestion_signals = 0;
    topo::LinkId truth_bottleneck;
    bool truth_access_limited = false;
    std::shared_ptr<const route::RouterPath> path;  // never null
    route::PathCache::Key path_key;
  };
  SingleOutcome simulate_single(std::uint32_t client, std::uint32_t server,
                                double utc_time_hours, util::Rng& rng) const;

 private:
  const gen::World* world_;
  const route::Forwarder* fwd_;
  const sim::ThroughputModel* model_;
  const Platform* platform_;
  const route::PathCache* cache_ = nullptr;
  const sim::FaultInjector* faults_ = nullptr;
  const sim::AdversaryScenario* adversary_ = nullptr;
  CampaignConfig config_;
};

}  // namespace netcong::measure
