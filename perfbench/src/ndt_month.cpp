// ndt_month: the paper's §4.1/§6 pipeline over one crowdsourced month.
//
// Set-up: the paper world (fixed, so the topology's size does not vary with
// the seed), routing, and a 28-day M-Lab schedule drawn from the seed and
// thinned to a fixed test count. Operation: NdtCampaign::run over the schedule (parallel test engine,
// PathCache cleared first so every month starts cold), match_tests, run_mapit,
// build_diurnal_groups + infer_congestion. Every operation replays the same
// schedule with the same campaign stream, so outputs must repeat exactly.

#include <algorithm>
#include <string>
#include <vector>

#include "core/diurnal.h"
#include "gen/workload.h"
#include "infer/fingerprint.h"
#include "infer/mapit.h"
#include "measure/fingerprint.h"
#include "measure/matching.h"
#include "measure/ndt.h"
#include "measure/platform.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "world.h"
#include "workloads.h"

namespace netcong::perfbench {

namespace {

// Relative peak-vs-off-peak drop above which a group is called congested.
constexpr double kDropThreshold = 0.2;

// Keeps a uniformly drawn subset of exactly `n` requests (all of them when
// there are fewer), in time order, so the month's size does not depend on
// how heavy the seed's enthusiast tail came out.
void thin(std::vector<gen::TestRequest>& schedule, std::size_t n,
          util::Rng& rng) {
  if (schedule.size() <= n) return;
  std::vector<std::size_t> idx(schedule.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = 0; i < n; ++i) {
    auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(idx.size()) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  std::vector<gen::TestRequest> kept;
  kept.reserve(n);
  for (std::size_t i : idx) kept.push_back(schedule[i]);
  schedule = std::move(kept);
}

class NdtMonth final : public Workload {
 public:
  using Workload::Workload;

  const char* items_name() const override { return "ndt_tests"; }

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"world", scale_name(options_.scale)},
            {"ases", std::to_string(net_ ? net_->topo().as_count() : 0)},
            {"world_seed", std::to_string(kDefaultSeed)},
            {"days", std::to_string(days())},
            {"mean_tests_per_client", "6"},
            {"drawn_tests", std::to_string(drawn_)},
            {"planned_tests", std::to_string(schedule_.size())},
            {"campaign_threads", std::to_string(worker_threads())}};
  }

  void setup() override {
    net_.reset();
    platform_.reset();
    schedule_ = {};
    net_ = build_network(paper_world(options_.scale));
    platform_ = std::make_unique<measure::Platform>(
        "M-Lab", net_->topo(), net_->world.mlab_servers);
    obs::Span span("gen.schedule");
    util::Rng rng = util::Rng(options_.seed).fork("schedule");
    gen::WorkloadConfig wl;
    wl.days = days();
    wl.mean_tests_per_client = 6.0;
    schedule_ = gen::crowdsourced_schedule(net_->world, net_->world.clients,
                                           wl, rng);
    drawn_ = schedule_.size();
    thin(schedule_, planned_tests(), rng);
  }

  OpResult run_op(Checks& checks) override {
    const gen::World& world = net_->world;
    net_->paths->clear();
    measure::CampaignConfig cc;
    cc.threads = worker_threads();
    measure::NdtCampaign campaign(world, *net_->fwd, *net_->model, *platform_,
                                  cc);
    campaign.set_path_cache(net_->paths.get());
    util::Rng rng = util::Rng(options_.seed).fork("campaign");

    measure::CampaignResult result;
    const double cpu0 = cpu_seconds();
    {
      obs::Span span("measure.ndt.campaign");
      result = campaign.run(schedule_, rng);
    }
    rec_.add("measure.ndt.campaign_cpu_s", cpu_seconds() - cpu0);
    const route::PathCache::Stats ps = net_->paths->stats();
    rec_.add("route.path_cache.hit_rate", ps.hit_rate());
    rec_.add("route.path_cache.misses", static_cast<double>(ps.misses));
    rec_.add("route.path_cache.entries",
             static_cast<double>(net_->paths->size()));
    rec_.add("measure.ndt.tests", static_cast<double>(result.tests.size()));
    rec_.add("measure.ndt.traceroutes",
             static_cast<double>(result.traceroutes.size()));
    rec_.add("measure.ndt.traceroutes_skipped_busy",
             static_cast<double>(result.traceroutes_skipped_busy));

    measure::MatchStats match_stats;
    std::vector<measure::MatchedTest> matched;
    {
      obs::Span span("measure.match");
      matched = measure::match_tests(result.tests, result.traceroutes,
                                     net_->topo(), measure::MatchOptions{},
                                     &match_stats);
    }
    rec_.add("measure.match.fraction", match_stats.fraction());

    infer::MapItResult mapit;
    {
      obs::Span span("infer.mapit");
      mapit = infer::run_mapit(result.traceroutes, *net_->ip2as, *net_->orgs);
    }

    core::DiurnalBuildStats diurnal_stats;
    std::vector<core::CongestionCall> calls;
    {
      obs::Span span("core.diurnal");
      auto source_of = [&](const measure::NdtRecord& t) {
        auto it = net_->transit_of.find(t.server_asn);
        return it == net_->transit_of.end() ? std::string() : it->second;
      };
      auto isp_of = [&](const measure::NdtRecord& t) {
        auto it = net_->isp_of.find(t.client_asn);
        return it == net_->isp_of.end() ? std::string() : it->second;
      };
      auto groups = core::build_diurnal_groups(result.tests, world, source_of,
                                               isp_of, &diurnal_stats);
      calls = core::infer_congestion(groups, kDropThreshold);
    }

    const std::size_t tests = result.tests.size();
    checks.expect(tests == schedule_.size(), "one test record per request");
    checks.expect(result.quality.consistent(),
                  "campaign DataQuality::consistent()");
    checks.expect(result.quality.tests_attempted == tests,
                  "DataQuality counts every test");
    checks.expect(match_stats.accounted() && match_stats.total_tests == tests,
                  "MatchStats::accounted() over every test");
    checks.expect(matched.size() == tests, "one match outcome per test");
    checks.expect(mapit.coverage.accounted() &&
                      mapit.coverage.traces_total == result.traceroutes.size(),
                  "MAP-IT corpus coverage accounts every traceroute");
    checks.expect(diurnal_stats.accounted() && diurnal_stats.total == tests,
                  "diurnal build accounts every test");

    measure::Fingerprint call_fp;
    for (const core::CongestionCall& c : calls) {
      call_fp.mix(std::string_view(c.key.source));
      call_fp.mix(std::string_view(c.key.isp));
      call_fp.mix(c.congested);
      call_fp.mix(c.insufficient_samples);
      call_fp.mix(static_cast<std::uint64_t>(c.tests));
    }
    const std::uint64_t campaign_fp = measure::fingerprint(result);
    const std::uint64_t mapit_fp = infer::fingerprint(mapit);
    checks.repeat("campaign", campaign_fp);
    checks.repeat("mapit", mapit_fp);
    checks.repeat("congestion", call_fp.value());
    checks.pin("campaign", campaign_fp);
    checks.pin("mapit", mapit_fp);
    checks.pin("congestion", call_fp.value());
    return {static_cast<double>(schedule_.size()), 0.0};
  }

 private:
  bool tiny() const { return options_.scale == Scale::kTiny; }
  int days() const { return tiny() ? 2 : 28; }
  std::size_t planned_tests() const { return tiny() ? 1'000 : 120'000; }

  std::unique_ptr<Network> net_;
  std::unique_ptr<measure::Platform> platform_;
  std::vector<gen::TestRequest> schedule_;
  std::size_t drawn_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ndt_month(const Options& options) {
  return std::make_unique<NdtMonth>(options);
}

}  // namespace netcong::perfbench
