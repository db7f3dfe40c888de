#include "measure/fingerprint.h"

#include <cstring>

#include "measure/corpus.h"
#include "sim/traffic.h"
#include "topo/topology.h"

namespace netcong::measure {

void Fingerprint::mix(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void Fingerprint::mix(std::string_view s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ = (h_ ^ c) * 1099511628211ull;
  }
}

void mix_record(Fingerprint& fp, const route::RouterPath& p) {
  fp.mix(p.valid);
  fp.mix(static_cast<std::uint64_t>(p.as_path.size()));
  for (topo::Asn a : p.as_path) fp.mix(static_cast<std::uint64_t>(a));
  fp.mix(static_cast<std::uint64_t>(p.hops.size()));
  for (const route::RouterHop& h : p.hops) {
    fp.mix(static_cast<std::uint64_t>(h.router.value));
    fp.mix(static_cast<std::uint64_t>(h.in_iface.value));
    fp.mix(static_cast<std::uint64_t>(h.in_link.value));
  }
  fp.mix(static_cast<std::uint64_t>(p.links.size()));
  for (topo::LinkId l : p.links) fp.mix(static_cast<std::uint64_t>(l.value));
  fp.mix(p.one_way_delay_ms);
}

void mix_record(Fingerprint& fp, const NdtRecord& t) {
  fp.mix(t.test_id);
  fp.mix(static_cast<std::uint64_t>(t.client));
  fp.mix(static_cast<std::uint64_t>(t.server));
  fp.mix(t.utc_time_hours);
  fp.mix(t.download_mbps);
  fp.mix(t.upload_mbps);
  fp.mix(t.flow_rtt_ms);
  fp.mix(t.retrans_rate);
  fp.mix(static_cast<std::uint64_t>(t.congestion_signals));
  fp.mix(static_cast<std::uint64_t>(t.client_asn));
  fp.mix(static_cast<std::uint64_t>(t.server_asn));
  fp.mix(static_cast<std::uint64_t>(t.status));
  fp.mix(t.truncated);
  fp.mix(t.has_webstats);
  mix_record(fp, t.truth_path);
  fp.mix(static_cast<std::uint64_t>(t.truth_bottleneck.value));
  fp.mix(t.truth_access_limited);
}

void mix_record(Fingerprint& fp, const TracerouteRecord& tr) {
  fp.mix(static_cast<std::uint64_t>(tr.src_host));
  fp.mix(static_cast<std::uint64_t>(tr.dst.value));
  fp.mix(tr.utc_time_hours);
  fp.mix(tr.reached_dst);
  fp.mix(static_cast<std::uint64_t>(tr.hops.size()));
  for (const TraceHop& h : tr.hops) {
    fp.mix(static_cast<std::uint64_t>(h.ttl));
    fp.mix(h.responded);
    fp.mix(static_cast<std::uint64_t>(h.addr.value));
    fp.mix(h.rtt_ms);
    fp.mix(h.dns_name);
  }
  mix_record(fp, tr.truth);
}

std::uint64_t fingerprint(const std::vector<TracerouteRecord>& corpus) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(corpus.size()));
  for (const auto& tr : corpus) mix_record(fp, tr);
  return fp.value();
}

std::uint64_t observed_fingerprint(
    const std::vector<TracerouteRecord>& corpus) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(corpus.size()));
  for (const auto& tr : corpus) {
    fp.mix(static_cast<std::uint64_t>(tr.src_host));
    fp.mix(static_cast<std::uint64_t>(tr.dst.value));
    fp.mix(tr.utc_time_hours);
    fp.mix(tr.reached_dst);
    fp.mix(static_cast<std::uint64_t>(tr.hops.size()));
    for (const TraceHop& h : tr.hops) {
      fp.mix(static_cast<std::uint64_t>(h.ttl));
      fp.mix(h.responded);
      fp.mix(static_cast<std::uint64_t>(h.addr.value));
      fp.mix(h.rtt_ms);
      fp.mix(h.dns_name);
    }
  }
  return fp.value();
}

std::uint64_t truth_fingerprint(const std::vector<TracerouteRecord>& corpus) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(corpus.size()));
  for (const auto& tr : corpus) mix_record(fp, tr.truth);
  return fp.value();
}

std::uint64_t fingerprint_before(const CampaignResult& result,
                                 double cutoff_hours) {
  Fingerprint fp;
  std::uint64_t tests = 0;
  for (const auto& t : result.tests) {
    if (t.utc_time_hours < cutoff_hours) ++tests;
  }
  fp.mix(tests);
  for (const auto& t : result.tests) {
    if (t.utc_time_hours < cutoff_hours) mix_record(fp, t);
  }
  std::uint64_t traces = 0;
  for (const auto& tr : result.traceroutes) {
    if (tr.utc_time_hours < cutoff_hours) ++traces;
  }
  fp.mix(traces);
  for (const auto& tr : result.traceroutes) {
    if (tr.utc_time_hours < cutoff_hours) mix_record(fp, tr);
  }
  return fp.value();
}

namespace {
// The accounting tail both campaign fingerprints end with.
void mix_accounting(Fingerprint& fp, std::size_t skipped_busy,
                    std::size_t skipped_cached, std::size_t failed,
                    const sim::DataQuality& quality) {
  fp.mix(static_cast<std::uint64_t>(skipped_busy));
  fp.mix(static_cast<std::uint64_t>(skipped_cached));
  fp.mix(static_cast<std::uint64_t>(failed));
  for (const auto& [metric, value] : quality.rows()) {
    fp.mix(metric);
    fp.mix(static_cast<std::uint64_t>(value));
  }
}
}  // namespace

std::uint64_t fingerprint(const CampaignResult& result) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(result.tests.size()));
  for (const auto& t : result.tests) mix_record(fp, t);
  fp.mix(static_cast<std::uint64_t>(result.traceroutes.size()));
  for (const auto& tr : result.traceroutes) mix_record(fp, tr);
  mix_accounting(fp, result.traceroutes_skipped_busy,
                 result.traceroutes_skipped_cached, result.traceroutes_failed,
                 result.quality);
  return fp.value();
}

std::uint64_t fingerprint(const ColumnarCampaignResult& result) {
  // The same byte sequence as fingerprint(result.materialize()), one
  // materialized record at a time.
  Fingerprint fp;
  const NdtCorpus& tests = result.tests;
  fp.mix(static_cast<std::uint64_t>(tests.size()));
  for (std::size_t i = 0; i < tests.size(); ++i) {
    mix_record(fp, tests.materialize(i, result.paths));
  }
  const TraceCorpus& traces = result.traceroutes;
  fp.mix(static_cast<std::uint64_t>(traces.size()));
  for (std::size_t i = 0; i < traces.size(); ++i) {
    mix_record(fp, traces.materialize(i, *result.topo, result.paths));
  }
  mix_accounting(fp, result.traceroutes_skipped_busy,
                 result.traceroutes_skipped_cached, result.traceroutes_failed,
                 result.quality);
  return fp.value();
}

std::uint64_t fingerprint(const gen::World& world) {
  Fingerprint fp;
  const topo::Topology& t = *world.topo;

  fp.mix(static_cast<std::uint64_t>(t.cities().size()));
  for (const auto& c : t.cities()) {
    fp.mix(c.name);
    fp.mix(c.lat);
    fp.mix(c.lon);
    fp.mix(static_cast<std::uint64_t>(c.utc_offset_hours));
    fp.mix(c.population_weight);
  }
  fp.mix(static_cast<std::uint64_t>(t.orgs().size()));
  for (const auto& o : t.orgs()) fp.mix(o.name);
  for (topo::Asn asn : t.all_asns()) {
    const topo::AsInfo& info = t.as_info(asn);
    fp.mix(static_cast<std::uint64_t>(asn));
    fp.mix(info.name);
    fp.mix(static_cast<std::uint64_t>(info.org.value));
    fp.mix(static_cast<std::uint64_t>(info.type));
  }
  fp.mix(static_cast<std::uint64_t>(t.routers().size()));
  for (const auto& r : t.routers()) {
    fp.mix(static_cast<std::uint64_t>(r.owner));
    fp.mix(static_cast<std::uint64_t>(r.city.value));
    fp.mix(static_cast<std::uint64_t>(r.role));
    fp.mix(r.name);
    fp.mix(static_cast<std::uint64_t>(r.mgmt_addr.value));
  }
  fp.mix(static_cast<std::uint64_t>(t.interfaces().size()));
  for (const auto& i : t.interfaces()) {
    fp.mix(static_cast<std::uint64_t>(i.addr.value));
    fp.mix(static_cast<std::uint64_t>(i.router.value));
    fp.mix(static_cast<std::uint64_t>(i.addr_owner));
    fp.mix(static_cast<std::uint64_t>(i.link.value));
    fp.mix(i.dns_name);
  }
  fp.mix(static_cast<std::uint64_t>(t.links().size()));
  for (const auto& l : t.links()) {
    fp.mix(static_cast<std::uint64_t>(l.side_a.value));
    fp.mix(static_cast<std::uint64_t>(l.side_b.value));
    fp.mix(static_cast<std::uint64_t>(l.kind));
    fp.mix(static_cast<std::uint64_t>(l.as_a));
    fp.mix(static_cast<std::uint64_t>(l.as_b));
    fp.mix(l.capacity_mbps);
    fp.mix(l.prop_delay_ms);
    fp.mix(l.via_ixp);
    // Traffic is part of the world: the load profile each link carries.
    const sim::LinkLoadProfile& p = world.traffic->profile(l.id);
    fp.mix(p.base_util);
    fp.mix(p.peak_util);
  }
  fp.mix(static_cast<std::uint64_t>(t.hosts().size()));
  for (const auto& h : t.hosts()) {
    fp.mix(static_cast<std::uint64_t>(h.kind));
    fp.mix(static_cast<std::uint64_t>(h.addr.value));
    fp.mix(static_cast<std::uint64_t>(h.asn));
    fp.mix(static_cast<std::uint64_t>(h.city.value));
    fp.mix(static_cast<std::uint64_t>(h.attachment.value));
    fp.mix(h.tier.down_mbps);
    fp.mix(h.tier.up_mbps);
    fp.mix(h.home_quality);
    fp.mix(h.access_delay_ms);
    fp.mix(h.label);
  }
  fp.mix(static_cast<std::uint64_t>(t.announced_prefixes().size()));
  for (const auto& [prefix, origin] : t.announced_prefixes()) {
    fp.mix(static_cast<std::uint64_t>(prefix.network.value));
    fp.mix(static_cast<std::uint64_t>(prefix.len));
    fp.mix(static_cast<std::uint64_t>(origin));
  }
  fp.mix(static_cast<std::uint64_t>(t.ixp_prefixes().size()));
  for (const auto& prefix : t.ixp_prefixes()) {
    fp.mix(static_cast<std::uint64_t>(prefix.network.value));
    fp.mix(static_cast<std::uint64_t>(prefix.len));
  }

  auto mix_hosts = [&fp](const std::vector<std::uint32_t>& ids) {
    fp.mix(static_cast<std::uint64_t>(ids.size()));
    for (std::uint32_t id : ids) fp.mix(static_cast<std::uint64_t>(id));
  };
  mix_hosts(world.mlab_servers);
  mix_hosts(world.speedtest_servers_2017);
  mix_hosts(world.speedtest_servers_2015);
  mix_hosts(world.ark_vps);
  mix_hosts(world.content_hosts);
  mix_hosts(world.clients);
  fp.mix(static_cast<std::uint64_t>(world.congested_links.size()));
  for (topo::LinkId l : world.congested_links) {
    fp.mix(static_cast<std::uint64_t>(l.value));
  }
  return fp.value();
}

}  // namespace netcong::measure
