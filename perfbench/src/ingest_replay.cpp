// ingest_replay: the always-on ingest service fed from a recorded log.
//
// Set-up: a 10k-AS world (fixed), a synthetic run_columnar campaign drawn
// from the seed and flattened by event_log_from, and the batch MAP-IT
// reference over the log's traceroutes. Operation: a fresh IngestService (kBlock, one shard per
// worker thread) with a WalWriter (fsync per append off) replays the whole
// log, taking a snapshot() every kStride events and a final one; then
// recover_wal reads the log back. Writes (submit, WAL append) run beside
// reads (snapshots, recovery), so a gain on one side that costs the other
// shows in the same operation.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "infer/alias.h"
#include "infer/fingerprint.h"
#include "infer/mapit.h"
#include "measure/corpus.h"
#include "measure/ndt.h"
#include "measure/platform.h"
#include "obs/trace.h"
#include "serve/event.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "util/rng.h"
#include "world.h"
#include "workloads.h"

namespace netcong::perfbench {

namespace {

// Synthetic campaign rate: tests arrive at a fixed 5000 per hour,
// round-robin over the client population.
constexpr double kTestsPerHour = 5000.0;

class IngestReplay final : public Workload {
 public:
  using Workload::Workload;
  ~IngestReplay() override {
    std::error_code ec;
    std::filesystem::remove_all(wal_root(), ec);
  }

  const char* items_name() const override { return "events"; }

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"world", "full preset, customer_scale " +
                          std::to_string(customer_scale())},
            {"world_seed", std::to_string(kDefaultSeed)},
            {"ases", std::to_string(net_ ? net_->topo().as_count() : 0)},
            {"tests", std::to_string(tests())},
            {"events", std::to_string(log_.size())},
            {"snapshot_stride_events", std::to_string(stride())},
            {"queue_capacity", "4096"},
            {"policy", "block"},
            {"wal_fsync_each_append", "false"},
            {"wal_dir", wal_root()}};
  }

  int shards_used() const override { return shards_; }

  void setup() override {
    log_ = {};
    aliases_.reset();
    net_.reset();
    gen::GeneratorConfig cfg = gen::GeneratorConfig::full();
    cfg.seed = kDefaultSeed;
    cfg.customer_scale = customer_scale();
    cfg.clients_per_access_isp = 400;
    net_ = build_network(cfg);
    const gen::World& world = net_->world;

    std::vector<gen::TestRequest> schedule(tests());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      schedule[i].client = world.clients[i % world.clients.size()];
      schedule[i].utc_time_hours = static_cast<double>(i) / kTestsPerHour;
    }
    measure::Platform mlab("M-Lab", net_->topo(), world.mlab_servers);
    measure::CampaignConfig cc;
    cc.threads = worker_threads();
    measure::NdtCampaign campaign(world, *net_->fwd, *net_->model, mlab, cc);
    campaign.set_path_cache(net_->paths.get());
    util::Rng rng = util::Rng(options_.seed).fork("campaign");
    {
      measure::ColumnarCampaignResult columnar;
      {
        obs::Span span("measure.ndt.columnar");
        columnar = campaign.run_columnar(schedule, rng);
      }
      obs::Span span("serve.event_log");
      log_ = serve::event_log_from(columnar);
    }
    log_fp_ = serve::fingerprint(log_, log_.size());
    aliases_ =
        std::make_unique<infer::AliasResolver>(net_->topo(), 0.9, cfg.seed);
    // The batch reference a final snapshot must equal.
    std::vector<measure::TracerouteRecord> traces;
    for (const serve::IngestEvent& ev : log_) {
      if (serve::is_trace(ev)) {
        traces.push_back(std::get<measure::TracerouteRecord>(ev));
      }
    }
    obs::Span span("infer.mapit");
    reference_fp_ = infer::fingerprint(
        infer::run_mapit(traces, *net_->ip2as, *net_->orgs));
  }

  OpResult run_op(Checks& checks) override {
    namespace fs = std::filesystem;
    const std::string dir = wal_root() + "/wal-" + std::to_string(ops_++);
    std::error_code ec;
    fs::remove_all(dir, ec);
    serve::WalWriter wal;
    util::Status opened = wal.open(dir, serve::WalOptions{});
    checks.expect(opened.ok(), "WAL opens: " + opened.error());
    if (!opened.ok()) return {};

    serve::ServeConfig scfg;
    scfg.shards = static_cast<std::size_t>(worker_threads());
    scfg.queue_capacity = 4096;
    scfg.policy = serve::OverflowPolicy::kBlock;
    scfg.vp_as = net_->topo().host(net_->world.ark_vps.front()).asn;
    serve::IngestService svc(*net_->ip2as, *net_->orgs, scfg);
    svc.set_relationships(&net_->topo().relationships(), aliases_.get());
    svc.attach_wal(&wal);
    svc.start();
    shards_ = static_cast<int>(svc.shards());

    bool all_accepted = true;
    serve::ServiceSnapshot snap;
    const double t0 = wall_seconds();
    for (std::size_t i = 0; i < log_.size();) {
      const std::size_t end = std::min(i + stride(), log_.size());
      {
        obs::Span span("serve.submit");
        for (; i < end; ++i) all_accepted &= svc.submit(log_[i]);
      }
      obs::Span span("serve.snapshot");
      snap = svc.snapshot();
      rec_.add("snapshot_ms", snap.snapshot_ms);
    }
    const double replay_s = wall_seconds() - t0;
    const serve::ServiceCounters counters = svc.counters();
    svc.stop();
    const serve::WalStats wal_stats = wal.stats();
    wal.close();

    const double t1 = wall_seconds();
    util::Result<serve::WalRecovery> recovered = [&] {
      obs::Span span("serve.recover");
      return serve::recover_wal(dir, /*repair=*/false);
    }();
    const double recover_s = wall_seconds() - t1;
    fs::remove_all(dir, ec);

    const std::uint64_t n = log_.size();
    rec_.add("recovery_events_per_s",
             recovered.ok() ? recovered->events.size() / recover_s : 0.0);
    rec_.add("serve.wal.bytes_per_event",
             n == 0 ? 0.0 : static_cast<double>(wal_stats.bytes_written) / n);
    rec_.add("serve.wal.segments",
             static_cast<double>(wal_stats.segments_created));
    rec_.add("serve.dropped", static_cast<double>(counters.dropped));
    rec_.add("serve.wal_rejected", static_cast<double>(counters.wal_rejected));

    checks.expect(all_accepted, "every submit accepted under kBlock");
    checks.expect(counters.submitted == n &&
                      counters.submitted ==
                          counters.enqueued + counters.dropped &&
                      counters.consumed == counters.enqueued,
                  "ServiceCounters conserve submitted = enqueued + dropped, "
                  "consumed = enqueued");
    checks.expect(counters.dropped == 0 && counters.wal_rejected == 0,
                  "no event dropped or refused by the WAL");
    checks.expect(wal_stats.appended == n, "WAL appended every event");
    checks.expect(snap.events_consumed == n, "final snapshot covers the log");
    checks.expect(infer::fingerprint(snap.mapit) == reference_fp_,
                  "final snapshot MAP-IT equals batch run_mapit");
    checks.expect(recovered.ok() && recovered->events.size() == n &&
                      !recovered->truncated_tail,
                  "recover_wal reads back every event");
    checks.expect(recovered.ok() &&
                      serve::fingerprint(recovered->events, n) == log_fp_,
                  "recovered log fingerprint equals the submitted log's");
    checks.repeat("snapshot", snap.fingerprint);
    checks.pin("event_log", log_fp_);
    checks.pin("snapshot", snap.fingerprint);
    return {static_cast<double>(counters.consumed), replay_s};
  }

  std::vector<Readout> readouts() const override {
    std::vector<Readout> out;
    if (const std::vector<double>* snaps = rec_.find("snapshot_ms")) {
      auto [pct, tail] = tail_percentile(*snaps);
      out.push_back({"snapshot_p50_ms", "ms", median(*snaps), snaps->size(),
                     pct, tail});
      out.push_back({"snapshot_p95_ms", "ms", percentile(*snaps, 0.95),
                     snaps->size(), 0, 0.0});
    }
    if (const std::vector<double>* rec = rec_.find("recovery_events_per_s")) {
      out.push_back({"recovery_events_per_s", "1/s", median(*rec),
                     rec->size(), 0, 0.0});
    }
    return out;
  }

 private:
  bool tiny() const { return options_.scale == Scale::kTiny; }
  double customer_scale() const { return tiny() ? 0.17 : 1.76; }
  std::size_t tests() const { return tiny() ? 2'000 : 50'000; }
  std::size_t stride() const { return tiny() ? 100 : 1'000; }
  std::string wal_root() const {
    return options_.out_dir + "/wal-" + std::to_string(::getpid());
  }

  std::unique_ptr<Network> net_;
  std::unique_ptr<infer::AliasResolver> aliases_;
  std::vector<serve::IngestEvent> log_;
  std::uint64_t log_fp_ = 0;
  std::uint64_t reference_fp_ = 0;
  std::size_t ops_ = 0;
  int shards_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ingest_replay(const Options& options) {
  return std::make_unique<IngestReplay>(options);
}

}  // namespace netcong::perfbench
