#pragma once

// Columnar (structure-of-arrays) campaign output — the representation the
// NDT campaign engine (NdtCampaign::run_columnar) produces.
//
// An array-of-structs CampaignResult pays for every NdtRecord owning a
// full copy of its RouterPath (three vectors) and every TracerouteRecord
// owning a vector of TraceHop each carrying a heap std::string for the PTR
// name. At 10M tests that is tens of millions of small allocations and
// several redundant copies of every popular path. The columnar layout
// removes all of it:
//
//  * NdtCorpus / TraceCorpus hold one flat vector per field;
//  * truth paths are interned once in a PathPool and referenced by index —
//    repeat (server, client, bucket) tests share a single RouterPath;
//  * traceroute hops are PackedTraceHop values bump-allocated into
//    per-campaign util::Arena slabs; a trace holds a (pointer, count) span
//    into a slab instead of a heap vector;
//  * PTR strings are not stored at all: a hop keeps the replying
//    topo::InterfaceId and the name is derived from the topology on demand
//    (an invalid id means "no PTR" — stars, management addresses, and
//    destination hosts, exactly the cases where TraceHop::dns_name is
//    empty).
//
// The record types (NdtRecord, TracerouteRecord) are a materialized view
// of these columns: ColumnarCampaignResult::materialize() turns the whole
// result into the CampaignResult that NdtCampaign::run returns, and the
// per-index materialize() calls build one record at a time (the event log
// and the fingerprints stream through them). Consumers that want bounded
// memory stream the corpus with for_each_batch instead of materializing
// it whole.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "measure/ndt.h"
#include "measure/traceroute.h"
#include "route/path_cache.h"
#include "util/arena.h"
#include "util/flat_map.h"

namespace netcong::measure {

// Index of an interned path in a PathPool; kNoPath marks records that never
// acquired a path (unserved/aborted/failed stubs) and materializes as a
// default RouterPath.
using PathRef = std::uint32_t;
inline constexpr PathRef kNoPath = 0xffffffffu;

// Deduplicated store of truth paths, keyed by the same identity the
// PathCache uses (src_host, dst, ECMP-relevant flow fields) — NOT by
// pointer, so interning is independent of cache eviction and recomputation
// timing. Interning is serial (the campaign interns in slot order after the
// parallel phases); lookups are const and safe to share across threads.
class PathPool {
 public:
  // Returns the ref for `key`, interning `path` if the key is new. The
  // pool's contents are a pure function of the (key, path) sequence.
  PathRef intern(const route::PathCache::Key& key,
                 std::shared_ptr<const route::RouterPath> path);

  // kNoPath yields a static default-constructed RouterPath.
  const route::RouterPath& at(PathRef ref) const;

  std::size_t size() const { return paths_.size(); }

 private:
  util::FlatMap<route::PathCache::Key, PathRef, route::PathCache::KeyHash>
      index_;
  std::vector<std::shared_ptr<const route::RouterPath>> paths_;
};

// One traceroute hop in 24 bytes (vs ~64 + a string allocation for a
// materialized TraceHop). Trivially copyable by design: hops live in Arena
// slabs.
struct PackedTraceHop {
  double rtt_ms = 0.0;
  topo::IpAddr addr;         // valid only if responded
  topo::InterfaceId iface;   // replying interface; invalid = no PTR record
  std::int32_t ttl = 0;
  std::uint8_t responded = 0;
};

// Column-per-field mirror of std::vector<NdtRecord>. Bools are stored as
// uint8_t (std::vector<bool> is not a thread-safe write target), the truth
// path as a PathRef into the campaign's PathPool.
struct NdtCorpus {
  std::vector<std::uint64_t> test_id;
  std::vector<std::uint32_t> client;
  std::vector<std::uint32_t> server;
  std::vector<double> utc_time_hours;
  std::vector<double> download_mbps;
  std::vector<double> upload_mbps;
  std::vector<double> flow_rtt_ms;
  std::vector<double> retrans_rate;
  std::vector<std::int32_t> congestion_signals;
  std::vector<topo::Asn> client_asn;
  std::vector<topo::Asn> server_asn;
  std::vector<NdtStatus> status;
  std::vector<std::uint8_t> truncated;
  std::vector<std::uint8_t> has_webstats;
  std::vector<PathRef> truth_path;
  std::vector<topo::LinkId> truth_bottleneck;
  std::vector<std::uint8_t> truth_access_limited;

  std::size_t size() const { return test_id.size(); }
  void resize(std::size_t n);

  // The scalar fields of record i as an NdtRecord; truth_path is left
  // default-constructed (analyses never read it — it is validation-only).
  NdtRecord materialize_scalar(std::size_t i) const;
  // Full reconstruction including the truth path copy.
  NdtRecord materialize(std::size_t i, const PathPool& pool) const;
};

// Column-per-field mirror of std::vector<TracerouteRecord>. Hop spans point
// into the arenas owned by this corpus; moving the corpus moves ownership,
// copying is deleted (spans would dangle).
struct TraceCorpus {
  std::vector<std::uint32_t> src_host;
  std::vector<topo::IpAddr> dst;
  std::vector<double> utc_time_hours;
  std::vector<std::uint8_t> reached_dst;
  std::vector<PathRef> truth;
  std::vector<const PackedTraceHop*> hops;  // nullptr iff hop_count == 0
  std::vector<std::uint32_t> hop_count;
  // Slabs backing the hop spans, one arena per builder block.
  std::vector<util::Arena> arenas;

  TraceCorpus() = default;
  TraceCorpus(TraceCorpus&&) = default;
  TraceCorpus& operator=(TraceCorpus&&) = default;
  TraceCorpus(const TraceCorpus&) = delete;
  TraceCorpus& operator=(const TraceCorpus&) = delete;

  std::size_t size() const { return src_host.size(); }
  std::size_t total_hops() const;

  // PTR names are derived from `topo` (hop.iface), truth from `pool`.
  TracerouteRecord materialize(std::size_t i, const topo::Topology& topo,
                               const PathPool& pool) const;
};

// The campaign's output: CampaignResult's accounting, a shared PathPool
// for test and traceroute truth paths, plus the topology pointer PTR
// derivation needs.
struct ColumnarCampaignResult {
  NdtCorpus tests;
  TraceCorpus traceroutes;
  std::size_t traceroutes_skipped_busy = 0;
  std::size_t traceroutes_skipped_cached = 0;
  std::size_t traceroutes_failed = 0;
  sim::DataQuality quality;
  PathPool paths;
  const topo::Topology* topo = nullptr;

  // Turns the result into the AoS records NdtCampaign::run returns,
  // materializing in parallel over `threads` workers (same meaning as
  // CampaignConfig::threads; the output does not depend on it). Consumes
  // the columns as it goes. Costs the full AoS footprint — not meant for
  // the 10M-test path.
  CampaignResult materialize(int threads = 1) &&;
};

// Invokes fn(begin, end) over consecutive half-open index ranges covering
// [0, n), each at most batch_size wide (the last may be shorter). A zero
// batch_size means one batch spanning everything; n == 0 invokes nothing.
template <typename Fn>
void for_each_batch(std::size_t n, std::size_t batch_size, Fn&& fn) {
  if (batch_size == 0) batch_size = n;
  for (std::size_t begin = 0; begin < n; begin += batch_size) {
    fn(begin, begin + batch_size < n ? begin + batch_size : n);
  }
}

}  // namespace netcong::measure
