#pragma once

// Shared scaffolding for the experiment benches: a generated world with the
// full measurement/inference stack on top, and output helpers that print
// each artifact with its paper-reported counterpart. Timing lives in
// perfbench/, not here.

#include <map>
#include <string>
#include <vector>

#include "core/coverage.h"
#include "gen/workload.h"
#include "gen/world.h"
#include "infer/alias.h"
#include "infer/bdrmap.h"
#include "infer/datasets.h"
#include "infer/mapit.h"
#include "measure/matching.h"
#include "measure/ndt.h"
#include "measure/platform.h"
#include "route/bgp.h"
#include "route/forwarding.h"
#include "route/path_cache.h"
#include "sim/throughput.h"

namespace netcong::bench {

// Experiment scale: benches default to a paper-scale world; set
// NETCONG_BENCH_SCALE=small in the environment for a quick run.
gen::GeneratorConfig bench_config();

struct Context {
  explicit Context(const gen::GeneratorConfig& cfg);

  gen::World world;
  route::BgpRouting bgp;
  route::Forwarder fwd;
  // Shared router-path memo: campaigns attached to it skip rebuilding
  // hot-potato/ECMP paths for repeated (server, client) pairs.
  route::PathCache path_cache;
  sim::ThroughputModel model;
  infer::Ip2As ip2as;
  infer::OrgMap orgs;
  std::map<topo::Asn, std::string> isp_of;  // client ASN -> ISP name

  measure::Platform mlab_platform() const;
  measure::Platform speedtest_platform(bool snapshot_2017 = true) const;
};

// A standard month-long crowdsourced NDT campaign with matching and MAP-IT,
// used by Fig 1 / Table 2 / Fig 5 / Section 6 benches.
struct CampaignData {
  measure::CampaignResult result;
  std::vector<measure::MatchedTest> matched;
  measure::MatchStats match_stats;
  infer::MapItResult mapit;
};
CampaignData run_standard_campaign(Context& ctx, int days,
                                   double tests_per_client,
                                   std::uint64_t seed);

// Per-VP coverage analysis (Figures 2-4 and Section 5.4): bdrmap discovery
// plus targeted campaigns toward M-Lab servers, Speedtest servers (chosen
// snapshot) and Alexa-style content targets.
std::vector<core::VpCoverage> run_coverage(Context& ctx, bool snapshot_2017,
                                           std::uint64_t seed);

// Output helpers.
void print_header(const std::string& artifact, const std::string& title);
void print_footnote(const std::string& text);
std::string pct(double value, int decimals = 1);

}  // namespace netcong::bench
