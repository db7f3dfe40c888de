#pragma once

// The ingest event model for the always-on service (DESIGN.md §11): the
// production M-Lab platform is a stream of NDT results and server-side
// traceroutes arriving continuously, not a corpus handed over whole. An
// IngestEvent is one element of that stream; an event log is the stream
// materialized in arrival order, which is what "a batch run over the same
// prefix of the event log" quantifies over in the snapshot-equivalence
// obligation.
//
// Event logs are derived from the campaign engine's columnar output
// (NdtCampaign::run_columnar): each event is one materialized record.

#include <cstdint>
#include <variant>
#include <vector>

#include "measure/corpus.h"
#include "measure/ndt.h"
#include "measure/traceroute.h"

namespace netcong::serve {

// One element of the ingest stream. The variant order defines the kind
// index used in fingerprints and shard routing.
using IngestEvent =
    std::variant<measure::NdtRecord, measure::TracerouteRecord>;

inline bool is_ndt(const IngestEvent& ev) {
  return std::holds_alternative<measure::NdtRecord>(ev);
}
inline bool is_trace(const IngestEvent& ev) {
  return std::holds_alternative<measure::TracerouteRecord>(ev);
}

// Arrival time of an event: its record's utc_time_hours.
inline double event_time(const IngestEvent& ev) {
  if (const auto* t = std::get_if<measure::NdtRecord>(&ev)) {
    return t->utc_time_hours;
  }
  return std::get<measure::TracerouteRecord>(ev).utc_time_hours;
}

// Materializes a campaign's tests and traceroutes into one arrival-ordered
// event log: ascending utc_time_hours, NDT results before traceroutes at
// equal times, original order preserved within each stream (both are
// already time-sorted by the campaign engine; a stable sort restores
// global order otherwise).
std::vector<IngestEvent> event_log_from(
    const measure::ColumnarCampaignResult& result);

// Order-sensitive fingerprint of an event log (or a prefix of one), built
// from the same per-record byte sequences as measure/fingerprint. Two logs
// with equal fingerprints replay identically.
std::uint64_t fingerprint(const std::vector<IngestEvent>& log,
                          std::size_t prefix);

}  // namespace netcong::serve
