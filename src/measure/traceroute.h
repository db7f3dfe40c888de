#pragma once

// Paris traceroute simulation. A traceroute walks the same router-level
// path a flow with the given key would take (Paris keeps the flow key
// constant, so ECMP decisions are stable across TTLs) and records, per hop,
// the address of the interface the probe *arrived* on — which on an
// interdomain link may be numbered from either AS's space, the central
// difficulty in traceroute-based border inference.
//
// Artifacts modeled: unresponsive hops (stars), probes suppressed near the
// client (home-gateway firewalls), and missing PTR records.
//
// The hop-production loop is a template over a sink: run_traceroute fills
// a vector-of-TraceHop record directly, while the NDT campaign packs hops
// into its arena-backed corpus (measure/corpus.h) and materializes the
// same records from it on demand — one draw sequence behind both.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "route/forwarding.h"
#include "route/path_cache.h"
#include "sim/adversary.h"
#include "sim/traffic.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace netcong::measure {

struct TraceHop {
  int ttl = 0;
  bool responded = false;
  topo::IpAddr addr;       // valid only if responded
  double rtt_ms = 0.0;
  std::string dns_name;    // PTR record if any
};

struct TracerouteRecord {
  std::uint32_t src_host = 0;
  topo::IpAddr dst;
  double utc_time_hours = 0.0;
  std::vector<TraceHop> hops;
  bool reached_dst = false;
  // Ground truth for validation (not visible to inference code).
  route::RouterPath truth;
};

struct TracerouteOptions {
  double star_prob = 0.03;        // per-hop unresponsiveness
  double client_silent_prob = 0.35;  // destination host does not reply
  bool paris = true;              // keep flow key fixed across TTLs
  // When set, hop RTTs include the time-dependent queueing delay of the
  // links traversed (needed for latency-based congestion probing, e.g.
  // TSLP); when null, RTTs reflect propagation only.
  const sim::TrafficModel* traffic = nullptr;
  // When set and enabled, the adversarial scenario perturbs this trace:
  // the flow key is rewritten (churn/asymmetry), post-epoch lookups
  // resolve through the scenario's route view, and cloaked routers never
  // respond. Null or a disabled scenario leaves the trace byte-identical
  // to the honest run (the per-hop star draw is consumed either way).
  const sim::AdversaryScenario* adversary = nullptr;
};

// The probe flow key a traceroute from src_host toward dst uses. Non-Paris
// mode draws its ports from `rng` (one draw per port), so callers must
// invoke this exactly once per traceroute, before any other draw.
route::FlowKey trace_flow_key(const topo::Topology& topo,
                              std::uint32_t src_host, topo::IpAddr dst,
                              const TracerouteOptions& options,
                              util::Rng& rng);

// The one path-acquisition routine of the measurement layer, shared by NDT
// data flows (is_trace = false) and traceroute probes (is_trace = true).
// It applies the adversary's test or trace key rewrite to `key` in place,
// then resolves the path through the adversary's post-epoch view when the
// rewrite asks for it, else through `cache`, else straight from `fwd`. It
// draws nothing from any campaign stream, so callers keep their draw order.
// A null or disabled adversary leaves `key` untouched.
std::shared_ptr<const route::RouterPath> acquire_path(
    const route::Forwarder& fwd, const route::PathCache* cache,
    const sim::AdversaryScenario* adversary, bool is_trace,
    std::uint32_t src_host, topo::IpAddr dst, double utc_time_hours,
    route::FlowKey& key);

// Runs one traceroute along the forwarder's path. When a PathCache is
// given, path construction is memoized through it (results are identical;
// Paris traceroutes use a fixed flow key per (src, dst) pair, so repeat
// traces hit the cache).
TracerouteRecord run_traceroute(const topo::Topology& topo,
                                const route::Forwarder& fwd,
                                std::uint32_t src_host, topo::IpAddr dst,
                                double utc_time_hours,
                                const TracerouteOptions& options,
                                util::Rng& rng,
                                const route::PathCache* cache = nullptr);

// A hop as TracerouteRecord stores it. Address and RTT are kept only when
// the hop responded; the PTR name comes from the replying interface, and
// an invalid id (stars, management addresses, the destination host) means
// no PTR record.
TraceHop make_trace_hop(const topo::Topology& topo, int ttl, bool responded,
                        topo::IpAddr addr, double rtt_ms,
                        topo::InterfaceId iface);

// Bumps the process-wide traceroute counters exactly as run_traceroute
// does; exposed for the campaign's packed-hop sink.
void note_traceroute_metrics(std::size_t hops, std::size_t stars,
                             bool reached_dst, bool unreachable);

// Core of the simulation: walks a precomputed (valid) path and feeds each
// produced hop to `sink.hop(ttl, responded, addr, rtt_ms, in_iface)`,
// where in_iface is the replying interface (invalid id when the reply came
// from a management address, a star, or the destination host — exactly the
// cases with no PTR record). Returns whether the destination replied. The
// draw sequence is the contract: any two sinks see identical streams.
template <typename Sink>
bool simulate_trace(const topo::Topology& topo, const route::RouterPath& path,
                    std::uint32_t src_host, topo::IpAddr dst,
                    double utc_time_hours, const TracerouteOptions& options,
                    util::Rng& rng, Sink& sink) {
  double cum_delay = topo.host(src_host).access_delay_ms;
  double cum_queue = 0.0;
  int ttl = 0;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    const route::RouterHop& hop = path.hops[i];
    if (i > 0) {
      cum_delay += topo.link(hop.in_link).prop_delay_ms;
      if (options.traffic) {
        double q = options.traffic
                       ->condition(hop.in_link, utc_time_hours, rng)
                       .queue_delay_ms;
        cum_delay += q;
        cum_queue += q;
      }
    }
    ++ttl;
    // The star draw is consumed unconditionally so a cloaked run stays
    // draw-aligned with the honest one; the cloak only forces the outcome.
    bool star = rng.chance(options.star_prob);
    if (!star && options.adversary != nullptr &&
        options.adversary->router_cloaked(hop.router)) {
      star = true;
    }
    if (!star) {
      // Routers reply from the inbound interface; the first hop (no inbound
      // link) replies from its management address.
      topo::IpAddr addr;
      topo::InterfaceId iface;  // invalid unless the reply names a PTR
      if (hop.in_iface.valid()) {
        addr = topo.iface(hop.in_iface).addr;
        iface = hop.in_iface;
      } else {
        addr = topo.router(hop.router).mgmt_addr;
      }
      double rtt = 2.0 * cum_delay * rng.uniform(1.0, 1.08);
      sink.hop(ttl, true, addr, rtt, iface);
    } else {
      sink.hop(ttl, false, topo::IpAddr{}, 0.0, topo::InterfaceId{});
    }
  }

  // The destination itself (client hosts often sit behind NAT/firewalls).
  bool dst_is_host = topo.host_by_addr(dst).has_value();
  bool silent = dst_is_host && rng.chance(options.client_silent_prob);
  if (!silent) {
    double rtt =
        (2.0 * path.one_way_delay_ms + cum_queue) * rng.uniform(1.0, 1.08);
    sink.hop(++ttl, true, dst, rtt, topo::InterfaceId{});
    return true;
  }
  return false;
}

// One latency probe (ping-style) to an arbitrary address: round-trip time
// including the queueing delay of every link crossed (both directions are
// assumed to traverse the same links). Returns a negative value when the
// target is unreachable.
double rtt_probe(const topo::Topology& topo, const route::Forwarder& fwd,
                 const sim::TrafficModel& traffic, std::uint32_t src_host,
                 topo::IpAddr target, double utc_time_hours, util::Rng& rng);

}  // namespace netcong::measure
