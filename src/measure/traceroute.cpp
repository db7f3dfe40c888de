#include "measure/traceroute.h"

#include "obs/metrics.h"

namespace netcong::measure {

namespace {
// Incremented from whatever worker thread simulates the trace — the
// registry's per-thread slabs make this lock-free and race-free; the bulk
// inc() calls below cost a handful of relaxed atomic ops per traceroute.
struct TracerouteMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter runs = reg.counter("traceroute.runs");
  obs::Counter unreachable = reg.counter("traceroute.unreachable");
  obs::Counter hops = reg.counter("traceroute.hops");
  obs::Counter stars = reg.counter("traceroute.stars");
  obs::Counter reached_dst = reg.counter("traceroute.reached_dst");
};
const TracerouteMetrics& traceroute_metrics() {
  static const TracerouteMetrics m;
  return m;
}

// Sink producing a TracerouteRecord (vector of TraceHop with the PTR
// string resolved eagerly).
struct RecordSink {
  const topo::Topology& topo;
  TracerouteRecord& rec;
  void hop(int ttl, bool responded, topo::IpAddr addr, double rtt_ms,
           topo::InterfaceId iface) {
    rec.hops.push_back(
        make_trace_hop(topo, ttl, responded, addr, rtt_ms, iface));
  }
};
}  // namespace

TraceHop make_trace_hop(const topo::Topology& topo, int ttl, bool responded,
                        topo::IpAddr addr, double rtt_ms,
                        topo::InterfaceId iface) {
  TraceHop th;
  th.ttl = ttl;
  th.responded = responded;
  if (responded) {
    th.addr = addr;
    th.rtt_ms = rtt_ms;
    if (iface.valid()) th.dns_name = topo.iface(iface).dns_name;
  }
  return th;
}

void note_traceroute_metrics(std::size_t hops, std::size_t stars,
                             bool reached_dst, bool unreachable) {
  const TracerouteMetrics& metrics = traceroute_metrics();
  metrics.runs.inc();
  if (unreachable) {
    metrics.unreachable.inc();
    return;
  }
  if (metrics.reg.enabled()) {
    metrics.hops.inc(hops);
    metrics.stars.inc(stars);
    if (reached_dst) metrics.reached_dst.inc();
  }
}

route::FlowKey trace_flow_key(const topo::Topology& topo,
                              std::uint32_t src_host, topo::IpAddr dst,
                              const TracerouteOptions& options,
                              util::Rng& rng) {
  route::FlowKey key;
  key.src = topo.host(src_host).addr;
  key.dst = dst;
  key.proto = 17;  // UDP probes
  if (options.paris) {
    // Paris traceroute fixes the header fields that feed ECMP hashes.
    key.src_port = 33434;
    key.dst_port = 33435;
  } else {
    // Classic traceroute varies the destination port per probe; we model
    // this as a per-traceroute random key, i.e. consecutive traceroutes may
    // take different ECMP branches than the measured flow.
    key.src_port = static_cast<std::uint16_t>(rng.uniform_int(33434, 33534));
    key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(33434, 33534));
  }
  return key;
}

std::shared_ptr<const route::RouterPath> acquire_path(
    const route::Forwarder& fwd, const route::PathCache* cache,
    const sim::AdversaryScenario* adversary, bool is_trace,
    std::uint32_t src_host, topo::IpAddr dst, double utc_time_hours,
    route::FlowKey& key) {
  bool post_view = false;
  if (adversary != nullptr && adversary->enabled()) {
    post_view = is_trace ? adversary->rewrite_trace_key(src_host, dst,
                                                        utc_time_hours, key)
                         : adversary->rewrite_test_key(src_host, dst,
                                                       utc_time_hours, key);
  }
  if (post_view) return adversary->post_cache().path_shared(src_host, dst, key);
  if (cache) return cache->path_shared(src_host, dst, key);
  return std::make_shared<const route::RouterPath>(
      fwd.path(src_host, dst, key));
}

TracerouteRecord run_traceroute(const topo::Topology& topo,
                                const route::Forwarder& fwd,
                                std::uint32_t src_host, topo::IpAddr dst,
                                double utc_time_hours,
                                const TracerouteOptions& options,
                                util::Rng& rng,
                                const route::PathCache* cache) {
  TracerouteRecord rec;
  rec.src_host = src_host;
  rec.dst = dst;
  rec.utc_time_hours = utc_time_hours;

  route::FlowKey key = trace_flow_key(topo, src_host, dst, options, rng);
  rec.truth = *acquire_path(fwd, cache, options.adversary, /*is_trace=*/true,
                            src_host, dst, utc_time_hours, key);
  if (!rec.truth.valid) {
    note_traceroute_metrics(0, 0, false, true);
    return rec;
  }

  RecordSink sink{topo, rec};
  rec.reached_dst = simulate_trace(topo, rec.truth, src_host, dst,
                                   utc_time_hours, options, rng, sink);
  std::size_t star_hops = 0;
  for (const TraceHop& th : rec.hops) {
    if (!th.responded) ++star_hops;
  }
  note_traceroute_metrics(rec.hops.size(), star_hops, rec.reached_dst, false);
  return rec;
}

double rtt_probe(const topo::Topology& topo, const route::Forwarder& fwd,
                 const sim::TrafficModel& traffic, std::uint32_t src_host,
                 topo::IpAddr target, double utc_time_hours, util::Rng& rng) {
  route::FlowKey key;
  key.src = topo.host(src_host).addr;
  key.dst = target;
  key.proto = 1;  // ICMP-style
  key.src_port = 0;
  key.dst_port = 0;
  route::RouterPath path = fwd.path(src_host, target, key);
  if (!path.valid) return -1.0;
  double one_way = path.one_way_delay_ms;
  double queue = 0.0;
  for (topo::LinkId l : path.links) {
    queue += traffic.condition(l, utc_time_hours, rng).queue_delay_ms;
  }
  // Propagation is symmetric; the standing queue is crossed in at least one
  // direction (droptail queues are directional, but the reply of a probe to
  // the far side of a congested link crosses it in the loaded direction).
  return 2.0 * one_way + queue * rng.uniform(1.0, 1.3);
}

}  // namespace netcong::measure
