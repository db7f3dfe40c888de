// ark_coverage: the paper's §5 border-coverage sequence, one Ark vantage
// point per operation.
//
// Set-up: the paper world (fixed, stubs scaled to ~3.4k ASes), routing,
// inference tables and an alias resolver. Operation: for the next of the world's Ark VPs, in order,
// ark_full_prefix_campaign (one traceroute per routed prefix), run_bdrmap,
// ark_targeted_campaign toward M-Lab, Speedtest (2017) and Alexa targets,
// then analyze_coverage. The full-prefix campaign touches every destination
// AS, more than the BGP tree cache holds, so this is the cache-overflow
// path. The seed drives the probe streams (one per VP), so a VP measured
// twice in one run must produce identical outputs.

#include <string>
#include <vector>

#include "core/coverage.h"
#include "infer/alias.h"
#include "infer/bdrmap.h"
#include "infer/fingerprint.h"
#include "measure/alexa.h"
#include "measure/ark.h"
#include "measure/fingerprint.h"
#include "obs/trace.h"
#include "util/flat_set.h"
#include "util/rng.h"
#include "world.h"
#include "workloads.h"

namespace netcong::perfbench {

namespace {

// Destination ASes timed by the traced run's tree-build probe.
constexpr std::size_t kTreeSample = 200;

// The paper world's stub population scaled to ~3.4k ASes: still more
// destination ASes than BgpRouting's 3,000-tree cache holds (at ~2.9k the
// whole set fits and every VP after the first runs ~10x faster), with
// VP operations short enough (~1.7 s) to take a median over in one run.
constexpr double kCustomerScale = 0.6;

std::uint64_t coverage_digest(const core::VpCoverage& cov) {
  measure::Fingerprint fp;
  for (const core::CoverageSet* set :
       {&cov.discovered, &cov.discovered_peers, &cov.mlab, &cov.mlab_peers,
        &cov.speedtest, &cov.speedtest_peers, &cov.alexa}) {
    fp.mix(static_cast<std::uint64_t>(set->as_level.size()));
    for (topo::Asn a : set->as_level) fp.mix(static_cast<std::uint64_t>(a));
    fp.mix(static_cast<std::uint64_t>(set->router_level.size()));
    for (const core::InterconnectKey& k : set->router_level) {
      fp.mix(static_cast<std::uint64_t>(k.neighbor));
      fp.mix(k.far_router);
    }
  }
  return fp.value();
}

class ArkCoverage final : public Workload {
 public:
  using Workload::Workload;

  const char* items_name() const override { return "traceroutes"; }

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"world", std::string(scale_name(options_.scale)) +
                          (options_.scale == Scale::kFull
                               ? " preset, customer_scale 0.6"
                               : " preset")},
            {"world_seed", std::to_string(kDefaultSeed)},
            {"ases", std::to_string(net_ ? net_->topo().as_count() : 0)},
            {"vps_measured", std::to_string(next_)},
            {"prefixes",
             std::to_string(net_ ? net_->topo().announced_prefixes().size()
                                 : 0)},
            {"vp_threads", "1"}};
  }

  void setup() override {
    aliases_.reset();
    net_.reset();
    gen::GeneratorConfig cfg = paper_world(options_.scale);
    if (options_.scale == Scale::kFull) cfg.customer_scale = kCustomerScale;
    net_ = build_network(cfg);
    aliases_ = std::make_unique<infer::AliasResolver>(net_->topo(), 0.88, 42);
  }

  OpResult run_op(Checks& checks) override {
    const gen::World& world = net_->world;
    const topo::Topology& topo = net_->topo();
    const std::vector<std::uint32_t>& vps = world.ark_vps;
    const bool first = next_ == 0;
    const std::uint32_t vp = vps[next_ % vps.size()];
    ++next_;
    const topo::Host& host = topo.host(vp);
    util::Rng rng = util::Rng(options_.seed).fork(vp);
    measure::ArkCampaignOptions opt;

    std::vector<measure::TracerouteRecord> full;
    {
      obs::Span span("measure.ark.full_prefix");
      full = measure::ark_full_prefix_campaign(world, *net_->fwd, vp, opt, rng);
    }
    infer::BdrmapResult bdr;
    {
      obs::Span span("infer.bdrmap");
      bdr = infer::run_bdrmap(full, host.asn, *net_->ip2as, *net_->orgs,
                              topo.relationships(), *aliases_);
    }
    std::vector<std::uint32_t> alexa;
    std::vector<measure::TracerouteRecord> to_mlab, to_st, to_alexa;
    {
      obs::Span span("measure.ark.targeted");
      to_mlab = measure::ark_targeted_campaign(
          world, *net_->fwd, vp, world.mlab_servers, opt, rng);
      to_st = measure::ark_targeted_campaign(
          world, *net_->fwd, vp, world.speedtest_servers_2017, opt, rng);
      alexa = measure::resolve_alexa_targets(world, vp);
      to_alexa = measure::ark_targeted_campaign(world, *net_->fwd, vp, alexa,
                                                opt, rng);
    }
    core::VpCoverage cov;
    {
      obs::Span span("core.coverage");
      auto it = net_->isp_of.find(host.asn);
      cov = core::analyze_coverage(
          host.label, it == net_->isp_of.end() ? "?" : it->second, bdr,
          to_mlab, to_st, to_alexa, *net_->ip2as, *net_->orgs, *aliases_);
    }

    const double traceroutes = static_cast<double>(
        full.size() + to_mlab.size() + to_st.size() + to_alexa.size());
    rec_.add("route.bgp.trees_cached",
             static_cast<double>(net_->bgp->cached_tree_count()));
    rec_.add("measure.ark.traceroutes", traceroutes);
    rec_.add("infer.bdrmap.borders", static_cast<double>(bdr.borders.size()));

    checks.expect(full.size() == topo.announced_prefixes().size(),
                  "one full-prefix traceroute per routed prefix");
    checks.expect(to_mlab.size() == world.mlab_servers.size() &&
                      to_st.size() == world.speedtest_servers_2017.size() &&
                      to_alexa.size() == alexa.size(),
                  "one targeted traceroute per target");
    checks.expect(bdr.vp_as == host.asn, "bdrmap maps the VP's own AS");
    checks.expect(bdr.coverage().accounted() &&
                      bdr.coverage().traces_total == full.size(),
                  "bdrmap corpus coverage accounts every traceroute");
    checks.expect(cov.discovered.as_level.size() == bdr.borders.size(),
                  "coverage denominator is bdrmap's neighbor set");

    const std::string key = "vp" + std::to_string(vp);
    const std::uint64_t corpus_fp = measure::fingerprint(full);
    const std::uint64_t bdrmap_fp = infer::fingerprint(bdr);
    const std::uint64_t coverage_fp = coverage_digest(cov);
    checks.repeat(key + ".corpus", corpus_fp);
    checks.repeat(key + ".bdrmap", bdrmap_fp);
    checks.repeat(key + ".coverage", coverage_fp);
    if (first) {
      checks.pin("first_vp.corpus", corpus_fp);
      checks.pin("first_vp.bdrmap", bdrmap_fp);
      checks.pin("first_vp.coverage", coverage_fp);
    }
    return {traceroutes, 0.0};
  }

  // Mean cost of one routing-tree build, on a private BgpRouting so the
  // shared instance's cache state is untouched.
  void traced_extras() override {
    std::vector<topo::Asn> sample;
    util::FlatSet<topo::Asn> seen;
    for (const auto& [prefix, origin] : net_->topo().announced_prefixes()) {
      if (sample.size() == kTreeSample) break;
      if (seen.insert(origin).second) sample.push_back(origin);
    }
    route::BgpRouting bgp(net_->topo());
    const double t0 = wall_seconds();
    {
      obs::Span span("route.bgp.warm");
      for (topo::Asn dst : sample) bgp.warm(dst);
    }
    const double elapsed = wall_seconds() - t0;
    rec_.add("route.bgp.tree_build_ms",
             sample.empty() ? 0.0 : 1e3 * elapsed / sample.size());
  }

 private:
  std::unique_ptr<Network> net_;
  std::unique_ptr<infer::AliasResolver> aliases_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ark_coverage(const Options& options) {
  return std::make_unique<ArkCoverage>(options);
}

}  // namespace netcong::perfbench
