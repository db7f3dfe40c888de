#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.h"
#include "measure/alexa.h"
#include "measure/ark.h"

namespace netcong::bench {

gen::GeneratorConfig bench_config() {
  const char* scale = std::getenv("NETCONG_BENCH_SCALE");
  gen::GeneratorConfig cfg;
  if (scale && std::strcmp(scale, "small") == 0) {
    cfg = gen::GeneratorConfig::small();
  } else if (scale && std::strcmp(scale, "tiny") == 0) {
    cfg = gen::GeneratorConfig::tiny();
  } else {
    cfg = gen::GeneratorConfig::full();
  }
  cfg.seed = 20150501;  // May 2015, the paper's primary measurement window
  return cfg;
}

Context::Context(const gen::GeneratorConfig& cfg)
    : world(gen::generate_world(cfg)),
      bgp(*world.topo),
      fwd(*world.topo, bgp),
      path_cache(fwd),
      model(*world.topo, *world.traffic),
      ip2as(*world.topo),
      orgs(*world.topo) {
  for (const auto& [name, asns] : world.isp_asns) {
    for (topo::Asn a : asns) isp_of[a] = name;
  }
}

measure::Platform Context::mlab_platform() const {
  return measure::Platform("M-Lab", *world.topo, world.mlab_servers);
}

measure::Platform Context::speedtest_platform(bool snapshot_2017) const {
  return measure::Platform("Speedtest", *world.topo,
                           snapshot_2017 ? world.speedtest_servers_2017
                                         : world.speedtest_servers_2015);
}

CampaignData run_standard_campaign(Context& ctx, int days,
                                   double tests_per_client,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  gen::WorkloadConfig wl;
  wl.days = days;
  wl.mean_tests_per_client = tests_per_client;
  auto schedule =
      gen::crowdsourced_schedule(ctx.world, ctx.world.clients, wl, rng);

  measure::CampaignConfig cc;
  measure::Platform mlab = ctx.mlab_platform();
  measure::NdtCampaign campaign(ctx.world, ctx.fwd, ctx.model, mlab, cc);
  campaign.set_path_cache(&ctx.path_cache);

  CampaignData data;
  data.result = campaign.run(schedule, rng);
  measure::MatchOptions mo;
  data.matched = measure::match_tests(data.result.tests,
                                      data.result.traceroutes, *ctx.world.topo,
                                      mo, &data.match_stats);
  data.mapit = infer::run_mapit(data.result.traceroutes, ctx.ip2as, ctx.orgs);
  return data;
}

std::vector<core::VpCoverage> run_coverage(Context& ctx, bool snapshot_2017,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  infer::AliasResolver aliases(*ctx.world.topo, 0.88, 42);
  const auto& st_servers = snapshot_2017 ? ctx.world.speedtest_servers_2017
                                         : ctx.world.speedtest_servers_2015;
  std::vector<core::VpCoverage> out;
  for (std::uint32_t vp : ctx.world.ark_vps) {
    const topo::Host& host = ctx.world.topo->host(vp);
    measure::ArkCampaignOptions opt;
    auto full =
        measure::ark_full_prefix_campaign(ctx.world, ctx.fwd, vp, opt, rng);
    auto bdr = infer::run_bdrmap(full, host.asn, ctx.ip2as, ctx.orgs,
                                 ctx.world.topo->relationships(), aliases);
    auto to_mlab = measure::ark_targeted_campaign(
        ctx.world, ctx.fwd, vp, ctx.world.mlab_servers, opt, rng);
    auto to_st = measure::ark_targeted_campaign(ctx.world, ctx.fwd, vp,
                                                st_servers, opt, rng);
    auto alexa_targets = measure::resolve_alexa_targets(ctx.world, vp);
    auto to_alexa = measure::ark_targeted_campaign(ctx.world, ctx.fwd, vp,
                                                   alexa_targets, opt, rng);
    std::string network = "?";
    auto it = ctx.isp_of.find(host.asn);
    if (it != ctx.isp_of.end()) network = it->second;
    out.push_back(core::analyze_coverage(host.label, network, bdr, to_mlab,
                                         to_st, to_alexa, ctx.ip2as, ctx.orgs,
                                         aliases));
  }
  return out;
}

void print_header(const std::string& artifact, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), title.c_str());
  std::printf("Reproduction of: Sundaresan et al., \"Challenges in Inferring\n");
  std::printf("Internet Congestion Using Throughput Measurements\", IMC 2017\n");
  std::printf("================================================================\n");
}

void print_footnote(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

std::string pct(double value, int decimals) {
  return util::format("%.*f%%", decimals, value);
}

}  // namespace netcong::bench
