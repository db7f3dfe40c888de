#pragma once

// The benchmark's named workloads. Each builds its inputs from the seed in
// setup() and runs one closed-loop operation per run_op().

#include <memory>
#include <string>

#include "harness.h"

namespace netcong::perfbench {

// Paper-scale world, a 28-day crowdsourced M-Lab month through the NDT
// campaign engine, then matching, MAP-IT and the diurnal congestion calls.
std::unique_ptr<Workload> make_ndt_month(const Options& options);

// Paper-scale world, Ark vantage points through the bdrmap/coverage
// sequence; more destination ASes than the BGP tree cache holds.
std::unique_ptr<Workload> make_ark_coverage(const Options& options);

// 10k-AS world's campaign flattened to an event log and replayed through
// the ingest service with a WAL, periodic snapshots and WAL recovery.
std::unique_ptr<Workload> make_ingest_replay(const Options& options);

// Packet-level path-model suites under NewReno, Cubic and BBR, scored.
std::unique_ptr<Workload> make_pathmodel_cc(const Options& options);

}  // namespace netcong::perfbench
