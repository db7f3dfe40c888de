#pragma once

// A generated world with the routing and inference tables on top: the
// shared input of every workload that measures on a topology. Built with
// gen.world and route.init spans around the generator and the routing
// constructors.

#include <map>
#include <memory>
#include <string>

#include "gen/world.h"
#include "harness.h"
#include "infer/datasets.h"
#include "route/bgp.h"
#include "route/forwarding.h"
#include "route/path_cache.h"
#include "sim/throughput.h"

namespace netcong::perfbench {

struct Network {
  gen::World world;
  std::unique_ptr<route::BgpRouting> bgp;
  std::unique_ptr<route::Forwarder> fwd;
  std::unique_ptr<route::PathCache> paths;
  std::unique_ptr<sim::ThroughputModel> model;
  std::unique_ptr<infer::Ip2As> ip2as;
  std::unique_ptr<infer::OrgMap> orgs;
  std::map<topo::Asn, std::string> isp_of;      // client ASN -> ISP name
  std::map<topo::Asn, std::string> transit_of;  // server ASN -> host transit

  const topo::Topology& topo() const { return *world.topo; }
};

std::unique_ptr<Network> build_network(const gen::GeneratorConfig& config);

// The paper-scale world (the tiny preset at Scale::kTiny), generated from
// kDefaultSeed whatever the run's seed: workloads draw their inputs on a
// fixed topology so the amount of work does not vary with the seed.
gen::GeneratorConfig paper_world(Scale scale);

}  // namespace netcong::perfbench
