#include "measure/ndt.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "measure/corpus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flat_map.h"
#include "util/parallel.h"

namespace netcong::measure {

namespace {
// The NDT server's data port (constant across tests; the client side's
// ephemeral port carries the ECMP bucket).
constexpr std::uint16_t kNdtServerPort = 3001;

// Disjoint fork-stream families, one per campaign phase, so a draw in one
// phase can never shift another phase's randomness. Ids stay far below 2^40.
constexpr std::uint64_t kStreamRequest = 1ull << 40;
constexpr std::uint64_t kStreamTest = 2ull << 40;
constexpr std::uint64_t kStreamTrace = 3ull << 40;
constexpr std::uint64_t kStreamProbe = 4ull << 40;

// Campaign instrumentation. Counters are bumped only from the serial
// phases (planning and the accounting sweep), never inside parallel_for
// bodies, so enabling metrics cannot perturb the parallel phases at all —
// the instrumented campaign is bit-identical to the uninstrumented one by
// construction, and the hot loops pay nothing.
struct CampaignMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter runs = reg.counter("campaign.runs");
  obs::Counter attempted = reg.counter("campaign.tests_attempted");
  obs::Counter completed = reg.counter("campaign.tests_completed");
  obs::Counter aborted = reg.counter("campaign.tests_aborted");
  obs::Counter unserved = reg.counter("campaign.tests_unserved");
  obs::Counter failed = reg.counter("campaign.tests_failed");
  obs::Counter truncated = reg.counter("campaign.tests_truncated");
  obs::Counter retried = reg.counter("campaign.tests_retried");
  obs::Counter retry_attempts = reg.counter("campaign.retry_attempts");
  obs::Counter webstats_dropped = reg.counter("campaign.webstats_dropped");
  obs::Counter tr_completed = reg.counter("campaign.traceroutes_completed");
  obs::Counter tr_busy = reg.counter("campaign.traceroutes_skipped_busy");
  obs::Counter tr_cached = reg.counter("campaign.traceroutes_skipped_cached");
  obs::Counter tr_failed = reg.counter("campaign.traceroutes_failed");
  obs::Counter tr_crashed = reg.counter("campaign.traceroutes_lost_crash");
  obs::Gauge tests_per_sec = reg.gauge("campaign.tests_per_sec");
  obs::Histogram download =
      reg.histogram("campaign.download_mbps",
                    {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
};
const CampaignMetrics& campaign_metrics() {
  static const CampaignMetrics m;
  return m;
}

// One entry of the flat test plan phase 1 produces.
struct Planned {
  std::uint32_t client = 0;
  std::uint32_t server = 0;
  double when = 0.0;
  std::uint64_t id = 0;
  NdtStatus status = NdtStatus::kCompleted;  // kCompleted = "to run"
};

// Phase 1 (sequential, cheap): expand requests into a flat test plan.
// Under faults, a chosen server that is down triggers the client retry
// policy: bounded attempts against the next-nearest servers, each after a
// deterministic backoff. A test with no reachable server is planned as
// unserved — attempted, classified, never silently dropped.
std::vector<Planned> build_plan(const std::vector<gen::TestRequest>& schedule,
                                const util::Rng& root,
                                const Platform& platform,
                                const CampaignConfig& config, bool faulted,
                                const sim::FaultInjector* faults,
                                const sim::FaultConfig* fc,
                                sim::DataQuality& quality) {
  std::vector<Planned> plan;
  plan.reserve(schedule.size() *
               static_cast<std::size_t>(
                   std::max(config.servers_per_request, 1)));
  std::uint64_t next_id = 1;
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    const gen::TestRequest& req = schedule[r];
    util::Rng req_rng = root.fork(kStreamRequest + r);
    std::vector<std::uint32_t> servers;
    if (config.servers_per_request <= 1) {
      servers.push_back(platform.select_server(req.client, req_rng));
    } else {
      servers = platform.select_servers_region(
          req.client, config.servers_per_request, req_rng);
    }
    double when = req.utc_time_hours;
    for (std::uint32_t server : servers) {
      Planned p{req.client, server, when, next_id++, NdtStatus::kCompleted};
      if (faulted && faults->server_down(p.server, p.when)) {
        util::Rng backoff_rng =
            faults->stream(sim::FaultSite::kRetryBackoff, p.id);
        std::vector<std::uint32_t> ladder =
            platform.nearest_servers(p.client, fc->max_retries + 4);
        bool served = false;
        std::size_t ladder_pos = 0;
        for (int attempt = 1; attempt <= fc->max_retries; ++attempt) {
          ++quality.retry_attempts;
          p.when += fc->backoff_base_s * attempt *
                    backoff_rng.uniform(0.75, 1.5) / 3600.0;
          // Next-nearest server not yet tried.
          while (ladder_pos < ladder.size() &&
                 ladder[ladder_pos] == p.server) {
            ++ladder_pos;
          }
          if (ladder_pos >= ladder.size()) break;
          std::uint32_t candidate = ladder[ladder_pos++];
          if (!faults->server_down(candidate, p.when)) {
            p.server = candidate;
            served = true;
            break;
          }
        }
        if (served) {
          ++quality.tests_retried;
        } else {
          p.status = NdtStatus::kUnserved;
        }
      }
      plan.push_back(p);
      when += config.ndt_duration_s / 3600.0;
    }
  }
  return plan;
}

// Serial accounting sweep over the per-slot test outcomes (the parallel
// phase writes no shared counters; metrics are bumped here too, so the hot
// loop stays untouched even with the registry enabled).
void account_tests(const NdtCorpus& tests, sim::DataQuality& quality,
                   double simulate_s) {
  const std::size_t n = tests.size();
  const CampaignMetrics& metrics = campaign_metrics();
  quality.tests_attempted = n;
  const bool metrics_on = metrics.reg.enabled();
  for (std::size_t i = 0; i < n; ++i) {
    switch (tests.status[i]) {
      case NdtStatus::kCompleted:
        ++quality.tests_completed;
        if (tests.truncated[i] != 0) ++quality.tests_truncated;
        if (tests.has_webstats[i] == 0) {
          ++quality.webstats_dropped;
          quality.fields_dropped += 2;  // flow_rtt_ms + retrans_rate
        }
        if (metrics_on) metrics.download.observe(tests.download_mbps[i]);
        break;
      case NdtStatus::kAborted: ++quality.tests_aborted; break;
      case NdtStatus::kUnserved: ++quality.tests_unserved; break;
      case NdtStatus::kFailed: ++quality.tests_failed; break;
    }
  }
  metrics.attempted.inc(quality.tests_attempted);
  metrics.completed.inc(quality.tests_completed);
  metrics.aborted.inc(quality.tests_aborted);
  metrics.unserved.inc(quality.tests_unserved);
  metrics.failed.inc(quality.tests_failed);
  metrics.truncated.inc(quality.tests_truncated);
  metrics.retried.inc(quality.tests_retried);
  metrics.retry_attempts.inc(quality.retry_attempts);
  metrics.webstats_dropped.inc(quality.webstats_dropped);
  if (simulate_s > 0.0) {
    metrics.tests_per_sec.set(static_cast<double>(n) / simulate_s);
  }
}

// Phase 3a (sequential, cheap): the server-side traceroute daemons'
// scheduling. A traceroute toward the client is skipped when the
// single-threaded daemon is busy, when it traced this client recently
// (cache), when the collection plainly fails (Section 4.1), or — under
// faults — when the daemon crashes, which also keeps it down for the
// restart delay. The busy/cache state is time-ordered per server, so this
// pass stays serial and deterministic. Only the *decision* is made here —
// the daemon's occupancy depends on a drawn trace duration, never on the
// trace's contents — so the simulation of the selected traceroutes can run
// in parallel afterwards. Only completed tests reach the daemon.
std::vector<std::size_t> schedule_traces(const std::vector<Planned>& plan,
                                         const util::Rng& root,
                                         const CampaignConfig& config,
                                         bool faulted,
                                         const sim::FaultInjector* faults,
                                         const sim::FaultConfig* fc,
                                         ColumnarCampaignResult& out) {
  util::FlatMap<std::uint32_t, double> tracer_busy_until;
  util::FlatMap<std::uint64_t, double> last_traced;
  std::vector<std::size_t> traced;  // indices into plan, in time order
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    if (out.tests.status[i] != NdtStatus::kCompleted) continue;
    util::Rng tr_rng = root.fork(kStreamTrace + p.id);
    double tr_start = p.when + config.ndt_duration_s / 3600.0;
    double& busy = tracer_busy_until[p.server];
    std::uint64_t cache_key =
        (static_cast<std::uint64_t>(p.server) << 32) | p.client;
    auto cached = last_traced.find(cache_key);
    if (cached != last_traced.end() &&
        tr_start - cached->second <
            config.traceroute_cache_minutes / 60.0) {
      ++out.traceroutes_skipped_cached;
    } else if (busy > tr_start) {
      ++out.traceroutes_skipped_busy;
      ++out.quality.traceroutes_lost_busy;
    } else if (faulted && faults->fires(sim::FaultSite::kTracerouteCrash,
                                        p.id, fc->daemon_crash_prob)) {
      // Daemon crash: the due trace is lost and the daemon restarts after a
      // delay, so the next traces in the window get busy-skipped.
      busy = tr_start + fc->daemon_restart_s / 3600.0;
      ++out.quality.traceroutes_lost_crash;
    } else if (tr_rng.chance(config.traceroute_failure_prob)) {
      ++out.traceroutes_failed;
      ++out.quality.traceroutes_lost_failed;
    } else {
      double dur_s = tr_rng.uniform(config.traceroute_min_s,
                                    config.traceroute_max_s);
      busy = tr_start + dur_s / 3600.0;
      last_traced[cache_key] = tr_start;
      traced.push_back(i);
      if (faulted && faults->fires(sim::FaultSite::kProbeLoss, p.id,
                                   fc->probe_loss_prob)) {
        ++out.quality.traceroutes_degraded;
      }
    }
  }
  out.quality.traceroutes_suppressed_cached = out.traceroutes_skipped_cached;
  out.quality.traceroutes_completed = traced.size();
  out.quality.traceroutes_scheduled =
      traced.size() + out.quality.traceroutes_lost_busy +
      out.quality.traceroutes_lost_failed + out.quality.traceroutes_lost_crash;
  const CampaignMetrics& metrics = campaign_metrics();
  metrics.tr_completed.inc(out.quality.traceroutes_completed);
  metrics.tr_busy.inc(out.quality.traceroutes_lost_busy);
  metrics.tr_cached.inc(out.quality.traceroutes_suppressed_cached);
  metrics.tr_failed.inc(out.quality.traceroutes_lost_failed);
  metrics.tr_crashed.inc(out.quality.traceroutes_lost_crash);
  return traced;
}

// Sink writing hops into a scratch vector of PackedTraceHop (flushed into
// an arena once the trace is complete).
struct PackedSink {
  std::vector<PackedTraceHop>& out;
  std::size_t stars = 0;
  void hop(int ttl, bool responded, topo::IpAddr addr, double rtt_ms,
           topo::InterfaceId iface) {
    PackedTraceHop h;
    h.ttl = ttl;
    h.responded = responded ? 1 : 0;
    if (responded) {
      h.addr = addr;
      h.rtt_ms = rtt_ms;
      h.iface = iface;
    } else {
      ++stars;
    }
    out.push_back(h);
  }
};
}  // namespace

const char* ndt_status_name(NdtStatus status) {
  switch (status) {
    case NdtStatus::kCompleted: return "completed";
    case NdtStatus::kAborted: return "aborted";
    case NdtStatus::kUnserved: return "unserved";
    case NdtStatus::kFailed: return "failed";
  }
  return "?";
}

NdtCampaign::NdtCampaign(const gen::World& world, const route::Forwarder& fwd,
                         const sim::ThroughputModel& model,
                         const Platform& platform, CampaignConfig config)
    : world_(&world),
      fwd_(&fwd),
      model_(&model),
      platform_(&platform),
      config_(config) {}

NdtCampaign::SingleOutcome NdtCampaign::simulate_single(
    std::uint32_t client, std::uint32_t server, double utc_time_hours,
    util::Rng& rng) const {
  const topo::Topology& topo = *world_->topo;
  SingleOutcome so;

  // Downstream: data flows server -> client; the path is computed from the
  // server, matching the direction M-Lab's server-side traceroute sees.
  int bucket = static_cast<int>(
      rng.uniform_int(0, std::max(config_.ecmp_buckets, 1) - 1));
  route::FlowKey key = route::PathCache::ecmp_key(
      topo.host(server).addr, topo.host(client).addr, kNdtServerPort, bucket);
  // Adversarial scenarios act through the key and the route view: churn
  // salts the key after the epoch, withdrawal swaps in the scenario's
  // post-epoch view. The rewritten key is also the cache/pool identity, so
  // pre- and post-epoch paths never alias under one key.
  so.path = acquire_path(*fwd_, cache_, adversary_, /*is_trace=*/false,
                         server, key.dst, utc_time_hours, key);
  so.path_key = route::PathCache::make_key(server, key.dst, key);
  if (!so.path->valid) return so;

  sim::ThroughputEstimate est = model_->estimate(
      *so.path, topo.host(client), topo.host(server), utc_time_hours, rng);
  so.download_mbps = est.goodput_mbps;
  so.flow_rtt_ms = est.flow_rtt_ms;
  so.retrans_rate = est.retrans_rate;
  so.congestion_signals = est.congestion_signals;
  so.truth_bottleneck = est.bottleneck;
  so.truth_access_limited = est.access_limited;

  // Upstream: bounded by the client's upload tier; the network leg reuses
  // the downstream estimate (the reverse path may differ in reality, but
  // NDT upload is almost always access-limited, which this preserves).
  so.upload_mbps =
      std::min(topo.host(client).tier.up_mbps * topo.host(client).home_quality,
               est.goodput_mbps);
  return so;
}

NdtRecord NdtCampaign::run_single(std::uint32_t client, std::uint32_t server,
                                  double utc_time_hours,
                                  std::uint64_t test_id,
                                  util::Rng& rng) const {
  const topo::Topology& topo = *world_->topo;
  NdtRecord rec;
  rec.test_id = test_id;
  rec.client = client;
  rec.server = server;
  rec.utc_time_hours = utc_time_hours;
  rec.client_asn = topo.host(client).asn;
  rec.server_asn = topo.host(server).asn;

  SingleOutcome so = simulate_single(client, server, utc_time_hours, rng);
  rec.truth_path = *so.path;
  if (!so.path->valid) return rec;
  rec.download_mbps = so.download_mbps;
  rec.upload_mbps = so.upload_mbps;
  rec.flow_rtt_ms = so.flow_rtt_ms;
  rec.retrans_rate = so.retrans_rate;
  rec.congestion_signals = so.congestion_signals;
  rec.truth_bottleneck = so.truth_bottleneck;
  rec.truth_access_limited = so.truth_access_limited;
  return rec;
}

CampaignResult NdtCampaign::run(const std::vector<gen::TestRequest>& schedule,
                                util::Rng& rng) const {
  return run_columnar(schedule, rng).materialize(config_.threads);
}

ColumnarCampaignResult NdtCampaign::run_columnar(
    const std::vector<gen::TestRequest>& schedule, util::Rng& rng) const {
  obs::Span run_span("campaign.run");
  campaign_metrics().runs.inc();
  const topo::Topology& topo = *world_->topo;
  ColumnarCampaignResult out;
  out.topo = &topo;
  const bool faulted = faults_ != nullptr && faults_->enabled();
  const sim::FaultConfig* fc = faulted ? &faults_->config() : nullptr;

  // RNG discipline: every stochastic decision draws from a generator forked
  // off `root` by a stable id (request index or test id), never from one
  // shared sequential stream — and every *fault* decision draws from the
  // injector's (site, item) streams. Each phase's draws are therefore
  // independent of the other phases and of how the parallel phases are
  // scheduled, making the campaign output bit-identical for any worker
  // count, with or without faults.
  const util::Rng root = rng.fork("ndt-campaign");

  std::optional<obs::Span> phase_span;
  phase_span.emplace("campaign.plan");
  std::vector<Planned> plan = build_plan(schedule, root, *platform_, config_,
                                         faulted, faults_, fc, out.quality);

  // Phase 2 (parallel): simulate every runnable test. Each slot is written
  // by exactly one iteration and each test's randomness comes from a fork
  // on its id; fault draws come from the injector's per-site streams. An
  // iteration never throws out of the loop — internal errors classify the
  // record as kFailed instead. The outcome lands in SoA columns and the
  // path in a per-slot shared_ptr; paths are interned into the pool
  // serially afterwards (first-seen slot order), so the pool contents are
  // independent of thread count.
  const double dur_h = config_.ndt_duration_s / 3600.0;
  NdtCorpus& tests = out.tests;
  tests.resize(plan.size());
  std::vector<std::shared_ptr<const route::RouterPath>> slot_path(plan.size());
  std::vector<route::PathCache::Key> slot_key(plan.size());
  phase_span.emplace("campaign.simulate");
  const auto simulate_start = std::chrono::steady_clock::now();
  util::parallel_for(plan.size(), config_.threads, [&](std::size_t i) {
    const Planned& p = plan[i];
    tests.test_id[i] = p.id;
    tests.client[i] = p.client;
    tests.server[i] = p.server;
    tests.utc_time_hours[i] = p.when;
    tests.client_asn[i] = topo.host(p.client).asn;
    tests.server_asn[i] = topo.host(p.server).asn;
    tests.status[i] = p.status;
    if (p.status != NdtStatus::kCompleted) return;  // unserved stub

    if (faulted &&
        (faults_->fires(sim::FaultSite::kNdtAbort, p.id, fc->ndt_abort_prob) ||
         faults_->server_down(p.server, p.when + dur_h))) {
      // Abort fault, or the server flapped away mid-test.
      tests.status[i] = NdtStatus::kAborted;
      return;
    }
    try {
      util::Rng test_rng = root.fork(kStreamTest + p.id);
      SingleOutcome so = simulate_single(p.client, p.server, p.when, test_rng);
      slot_path[i] = std::move(so.path);
      slot_key[i] = so.path_key;
      tests.download_mbps[i] = so.download_mbps;
      tests.upload_mbps[i] = so.upload_mbps;
      tests.flow_rtt_ms[i] = so.flow_rtt_ms;
      tests.retrans_rate[i] = so.retrans_rate;
      tests.congestion_signals[i] = so.congestion_signals;
      tests.truth_bottleneck[i] = so.truth_bottleneck;
      tests.truth_access_limited[i] = so.truth_access_limited ? 1 : 0;
    } catch (...) {
      tests.status[i] = NdtStatus::kFailed;
      return;
    }
    if (!faulted) return;
    util::Rng trunc_rng = faults_->stream(sim::FaultSite::kNdtTruncate, p.id);
    if (trunc_rng.chance(fc->ndt_truncate_prob)) {
      // Throughput measured on a partial transfer: biased by slow-start
      // weight or a missed late dip, in either direction.
      tests.truncated[i] = 1;
      tests.download_mbps[i] *= trunc_rng.uniform(0.5, 1.1);
    }
    if (faults_->fires(sim::FaultSite::kWebStatsDrop, p.id,
                       fc->webstats_drop_prob)) {
      tests.has_webstats[i] = 0;
      tests.flow_rtt_ms[i] = 0.0;
      tests.retrans_rate[i] = 0.0;
    }
  });

  const double simulate_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    simulate_start)
          .count();
  phase_span.emplace("campaign.intern");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (slot_path[i]) {
      tests.truth_path[i] =
          out.paths.intern(slot_key[i], std::move(slot_path[i]));
    }
  }
  slot_path.clear();
  slot_path.shrink_to_fit();
  slot_key.clear();
  slot_key.shrink_to_fit();

  phase_span.emplace("campaign.account");
  account_tests(tests, out.quality, simulate_s);

  phase_span.emplace("campaign.trace_schedule");
  std::vector<std::size_t> traced =
      schedule_traces(plan, root, config_, faulted, faults_, fc, out);

  // Phase 3b (parallel): simulate the selected traceroutes. Probe artifacts
  // (stars, silent clients, missing PTRs) draw from their own fork stream,
  // keyed on the test id, so the records are independent of worker count
  // and of the scheduling draws above. A trace that drew the probe-loss
  // fault runs with an elevated star probability (a lossy probe path).
  // The traces are built in fixed-size blocks — the
  // block split depends only on `traced`, never on the worker count — each
  // block writing a private arena and private columns; a serial merge in
  // block order then concatenates them, so the corpus layout is
  // bit-identical for any thread count. Hops are packed into the block
  // arena; truth paths are interned serially during the merge.
  constexpr std::size_t kTraceBlock = 1024;
  struct TraceBlock {
    util::Arena arena{64 * 1024};
    std::vector<std::uint8_t> reached;
    std::vector<const PackedTraceHop*> hops;
    std::vector<std::uint32_t> hop_count;
    std::vector<std::shared_ptr<const route::RouterPath>> path;
    std::vector<route::PathCache::Key> key;
  };
  const std::size_t num_blocks = (traced.size() + kTraceBlock - 1) / kTraceBlock;
  std::vector<TraceBlock> blocks(num_blocks);
  phase_span.emplace("campaign.trace_simulate");
  util::parallel_for(num_blocks, config_.threads, [&](std::size_t b) {
    TraceBlock& blk = blocks[b];
    const std::size_t begin = b * kTraceBlock;
    const std::size_t end = std::min(traced.size(), begin + kTraceBlock);
    blk.reached.reserve(end - begin);
    blk.hops.reserve(end - begin);
    blk.hop_count.reserve(end - begin);
    blk.path.reserve(end - begin);
    blk.key.reserve(end - begin);
    std::vector<PackedTraceHop> scratch;  // reused across the block's traces
    for (std::size_t t = begin; t < end; ++t) {
      const Planned& p = plan[traced[t]];
      util::Rng probe_rng = root.fork(kStreamProbe + p.id);
      double tr_start = p.when + config_.ndt_duration_s / 3600.0;
      TracerouteOptions opts = config_.traceroute;
      if (adversary_ != nullptr) opts.adversary = adversary_;
      if (faulted && faults_->fires(sim::FaultSite::kProbeLoss, p.id,
                                    fc->probe_loss_prob)) {
        opts.star_prob =
            std::min(0.9, opts.star_prob + fc->probe_loss_extra_star);
      }
      topo::IpAddr dst = topo.host(p.client).addr;
      route::FlowKey key = trace_flow_key(topo, p.server, dst, opts, probe_rng);
      std::shared_ptr<const route::RouterPath> path =
          acquire_path(*fwd_, cache_, opts.adversary, /*is_trace=*/true,
                       p.server, dst, tr_start, key);
      blk.path.push_back(path);
      blk.key.push_back(route::PathCache::make_key(p.server, dst, key));
      if (!path->valid) {
        note_traceroute_metrics(0, 0, false, true);
        blk.reached.push_back(0);
        blk.hops.push_back(nullptr);
        blk.hop_count.push_back(0);
        continue;
      }
      scratch.clear();
      PackedSink sink{scratch};
      bool reached = simulate_trace(topo, *path, p.server, dst, tr_start, opts,
                                    probe_rng, sink);
      note_traceroute_metrics(scratch.size(), sink.stars, reached, false);
      blk.reached.push_back(reached ? 1 : 0);
      blk.hops.push_back(
          scratch.empty() ? nullptr
                          : blk.arena.append(scratch.data(), scratch.size()));
      blk.hop_count.push_back(static_cast<std::uint32_t>(scratch.size()));
    }
  });

  phase_span.emplace("campaign.trace_merge");
  TraceCorpus& traces = out.traceroutes;
  traces.src_host.reserve(traced.size());
  traces.dst.reserve(traced.size());
  traces.utc_time_hours.reserve(traced.size());
  traces.reached_dst.reserve(traced.size());
  traces.truth.reserve(traced.size());
  traces.hops.reserve(traced.size());
  traces.hop_count.reserve(traced.size());
  traces.arenas.reserve(num_blocks);
  std::size_t t = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    TraceBlock& blk = blocks[b];
    for (std::size_t j = 0; j < blk.hops.size(); ++j, ++t) {
      const Planned& p = plan[traced[t]];
      traces.src_host.push_back(p.server);
      traces.dst.push_back(topo.host(p.client).addr);
      traces.utc_time_hours.push_back(p.when +
                                      config_.ndt_duration_s / 3600.0);
      traces.reached_dst.push_back(blk.reached[j]);
      traces.truth.push_back(
          out.paths.intern(blk.key[j], std::move(blk.path[j])));
      traces.hops.push_back(blk.hops[j]);
      traces.hop_count.push_back(blk.hop_count[j]);
    }
    traces.arenas.push_back(std::move(blk.arena));
  }
  return out;
}

}  // namespace netcong::measure
