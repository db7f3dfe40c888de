#pragma once

// Order-sensitive 64-bit fingerprints of pipeline outputs. One number
// stands in for "these two results are bit-identical", which is how the
// differential-determinism properties (and the refactored campaign
// determinism tests) compare full outputs across worker counts, path-cache
// settings, and instrumentation toggles without field-by-field assertion
// code per record type.
//
// Every field that previously carried an EXPECT_EQ in the scattered
// identity checks is mixed in: doubles by bit pattern (so -0.0 != 0.0 and
// NaN payloads count), strings length-prefixed, vectors size-prefixed.

#include <cstdint>
#include <string_view>
#include <vector>

#include "gen/world.h"
#include "measure/ndt.h"
#include "measure/traceroute.h"

namespace netcong::measure {

// FNV-1a accumulator over typed values.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  }
  void mix(double v);
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(std::string_view s);

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void mix_record(Fingerprint& fp, const NdtRecord& t);
void mix_record(Fingerprint& fp, const TracerouteRecord& tr);
void mix_record(Fingerprint& fp, const route::RouterPath& p);

std::uint64_t fingerprint(const std::vector<TracerouteRecord>& corpus);
std::uint64_t fingerprint(const CampaignResult& result);

// Observable-only fingerprint of a traceroute corpus: every field a real
// measurer sees (endpoints, times, hops, RTTs, PTR names), skipping the
// ground-truth paths. Two corpora with equal observed fingerprints are
// indistinguishable to inference code — the Misleading-Stars property
// asserts exactly this while truth_fingerprint differs.
std::uint64_t observed_fingerprint(
    const std::vector<TracerouteRecord>& corpus);

// Ground-truth-only fingerprint (the truth paths, in corpus order).
std::uint64_t truth_fingerprint(const std::vector<TracerouteRecord>& corpus);

// Fingerprint of the campaign prefix strictly before cutoff_hours: tests
// by test time, traceroutes by trace time, full records including truth.
// An adversarial campaign whose churn epoch is the cutoff must match the
// un-churned run here bit for bit (prefix equivalence).
std::uint64_t fingerprint_before(const CampaignResult& result,
                                 double cutoff_hours);

// Fingerprint of the campaign's columnar output, equal to the
// CampaignResult overload over its materialized view (so run() and
// run_columnar() on identical inputs yield equal fingerprints). Streams
// one record at a time instead of materializing the whole result.
// Requires result.topo (PTR names are derived from the topology).
std::uint64_t fingerprint(const ColumnarCampaignResult& result);

// Structural fingerprint of a generated world: every topology entity,
// control-plane view, and host list. Two calls to generate_world with the
// same config must produce the same value (generator determinism).
std::uint64_t fingerprint(const gen::World& world);

}  // namespace netcong::measure
