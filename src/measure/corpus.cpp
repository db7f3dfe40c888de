#include "measure/corpus.h"

#include "obs/trace.h"
#include "topo/topology.h"
#include "util/parallel.h"

namespace netcong::measure {

PathRef PathPool::intern(const route::PathCache::Key& key,
                         std::shared_ptr<const route::RouterPath> path) {
  auto [it, fresh] =
      index_.try_emplace(key, static_cast<PathRef>(paths_.size()));
  if (fresh) paths_.push_back(std::move(path));
  return it->second;
}

const route::RouterPath& PathPool::at(PathRef ref) const {
  static const route::RouterPath kEmpty;
  if (ref == kNoPath) return kEmpty;
  return *paths_[ref];
}

void NdtCorpus::resize(std::size_t n) {
  test_id.resize(n);
  client.resize(n);
  server.resize(n);
  utc_time_hours.resize(n);
  download_mbps.resize(n);
  upload_mbps.resize(n);
  flow_rtt_ms.resize(n);
  retrans_rate.resize(n);
  congestion_signals.resize(n);
  client_asn.resize(n);
  server_asn.resize(n);
  status.resize(n);
  truncated.resize(n);
  has_webstats.resize(n, 1);
  truth_path.resize(n, kNoPath);
  truth_bottleneck.resize(n);
  truth_access_limited.resize(n);
}

NdtRecord NdtCorpus::materialize_scalar(std::size_t i) const {
  NdtRecord r;
  r.test_id = test_id[i];
  r.client = client[i];
  r.server = server[i];
  r.utc_time_hours = utc_time_hours[i];
  r.download_mbps = download_mbps[i];
  r.upload_mbps = upload_mbps[i];
  r.flow_rtt_ms = flow_rtt_ms[i];
  r.retrans_rate = retrans_rate[i];
  r.congestion_signals = congestion_signals[i];
  r.client_asn = client_asn[i];
  r.server_asn = server_asn[i];
  r.status = status[i];
  r.truncated = truncated[i] != 0;
  r.has_webstats = has_webstats[i] != 0;
  r.truth_bottleneck = truth_bottleneck[i];
  r.truth_access_limited = truth_access_limited[i] != 0;
  return r;
}

NdtRecord NdtCorpus::materialize(std::size_t i, const PathPool& pool) const {
  NdtRecord r = materialize_scalar(i);
  r.truth_path = pool.at(truth_path[i]);
  return r;
}

std::size_t TraceCorpus::total_hops() const {
  std::size_t n = 0;
  for (std::uint32_t c : hop_count) n += c;
  return n;
}

TracerouteRecord TraceCorpus::materialize(std::size_t i,
                                          const topo::Topology& topo,
                                          const PathPool& pool) const {
  TracerouteRecord r;
  r.src_host = src_host[i];
  r.dst = dst[i];
  r.utc_time_hours = utc_time_hours[i];
  r.reached_dst = reached_dst[i] != 0;
  r.truth = pool.at(truth[i]);
  const PackedTraceHop* span = hops[i];
  r.hops.reserve(hop_count[i]);
  for (std::uint32_t h = 0; h < hop_count[i]; ++h) {
    const PackedTraceHop& ph = span[h];
    r.hops.push_back(make_trace_hop(topo, ph.ttl, ph.responded != 0, ph.addr,
                                    ph.rtt_ms, ph.iface));
  }
  return r;
}

CampaignResult ColumnarCampaignResult::materialize(int threads) && {
  obs::Span span("campaign.materialize");
  CampaignResult out;
  // Every slot is written by exactly one iteration, so the output is the
  // same for any worker count. The hop arenas are released before the
  // test records grow, so the columnar and record footprints overlap only
  // partly.
  out.traceroutes.resize(traceroutes.size());
  util::parallel_for(traceroutes.size(), threads, [&](std::size_t i) {
    out.traceroutes[i] = traceroutes.materialize(i, *topo, paths);
  });
  traceroutes = TraceCorpus();
  out.tests.resize(tests.size());
  util::parallel_for(tests.size(), threads, [&](std::size_t i) {
    out.tests[i] = tests.materialize(i, paths);
  });
  out.traceroutes_skipped_busy = traceroutes_skipped_busy;
  out.traceroutes_skipped_cached = traceroutes_skipped_cached;
  out.traceroutes_failed = traceroutes_failed;
  out.quality = quality;
  return out;
}

}  // namespace netcong::measure
