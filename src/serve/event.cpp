#include "serve/event.h"

#include <algorithm>

#include "measure/fingerprint.h"

namespace netcong::serve {

std::vector<IngestEvent> event_log_from(
    const measure::ColumnarCampaignResult& result) {
  std::vector<IngestEvent> log;
  log.reserve(result.tests.size() + result.traceroutes.size());
  for (std::size_t i = 0; i < result.tests.size(); ++i) {
    log.emplace_back(result.tests.materialize(i, result.paths));
  }
  for (std::size_t i = 0; i < result.traceroutes.size(); ++i) {
    log.emplace_back(
        result.traceroutes.materialize(i, *result.topo, result.paths));
  }
  // Interleaves the two per-kind streams into arrival order. stable_sort
  // with a time-then-kind key keeps each stream's internal order and puts
  // the NDT result ahead of the traceroute it triggered (equal timestamps).
  std::stable_sort(log.begin(), log.end(),
                   [](const IngestEvent& a, const IngestEvent& b) {
                     double ta = event_time(a), tb = event_time(b);
                     if (ta != tb) return ta < tb;
                     return a.index() < b.index();
                   });
  return log;
}

std::uint64_t fingerprint(const std::vector<IngestEvent>& log,
                          std::size_t prefix) {
  if (prefix > log.size()) prefix = log.size();
  measure::Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(prefix));
  for (std::size_t i = 0; i < prefix; ++i) {
    const IngestEvent& ev = log[i];
    fp.mix(static_cast<std::uint64_t>(ev.index()));
    if (const auto* t = std::get_if<measure::NdtRecord>(&ev)) {
      measure::mix_record(fp, *t);
    } else {
      measure::mix_record(fp, std::get<measure::TracerouteRecord>(ev));
    }
  }
  return fp.value();
}

}  // namespace netcong::serve
