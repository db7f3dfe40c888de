#include "world.h"

#include "obs/trace.h"

namespace netcong::perfbench {

gen::GeneratorConfig paper_world(Scale scale) {
  gen::GeneratorConfig cfg = scale == Scale::kTiny
                                 ? gen::GeneratorConfig::tiny()
                                 : gen::GeneratorConfig::full();
  cfg.seed = kDefaultSeed;
  return cfg;
}

std::unique_ptr<Network> build_network(const gen::GeneratorConfig& config) {
  auto net = std::make_unique<Network>();
  {
    obs::Span span("gen.world");
    net->world = gen::generate_world(config);
  }
  const topo::Topology& topo = *net->world.topo;
  {
    obs::Span span("route.init");
    net->bgp = std::make_unique<route::BgpRouting>(topo);
    net->fwd = std::make_unique<route::Forwarder>(topo, *net->bgp);
    net->paths = std::make_unique<route::PathCache>(*net->fwd);
  }
  {
    obs::Span span("infer.datasets");
    net->ip2as = std::make_unique<infer::Ip2As>(topo);
    net->orgs = std::make_unique<infer::OrgMap>(topo);
  }
  net->model =
      std::make_unique<sim::ThroughputModel>(topo, *net->world.traffic);
  for (const auto& [name, asns] : net->world.isp_asns) {
    for (topo::Asn a : asns) net->isp_of[a] = name;
  }
  for (const auto& [name, asn] : net->world.transit_asns) {
    net->transit_of[asn] = name;
  }
  return net;
}

}  // namespace netcong::perfbench
