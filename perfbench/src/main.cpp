// netcong benchmark driver: runs one named workload for a fixed time and
// prints its metrics, ending with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1). Exits non-zero when any operation's output check failed.
//
//   netcong_perfbench --workload ndt_month --seed 1 --seconds 20 --trace 0
//       [--scale full|tiny] [--corrupt-pin]
//
// perfbench/README.md maps every metric to its layer and workload.

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace netcong::perfbench {
namespace {

// Set-up repeats before the operations (and, untraced, again after them):
// at least kMinSetups and at least kMinSetupS seconds' worth each time, so
// a short set-up is sampled over a window as long as a long one's.
// setup_s is the median of all of them.
constexpr int kMinSetups = 3;
constexpr double kMinSetupS = 1.0;

// How a per-layer metric is derived in the traced run.
enum class Source {
  kSetupSpan,  // summed span wall during set-up, per set-up
  kOpSpan,     // summed span wall during traced operations, per operation
  kOpCounter,  // obs counter over the traced operations, per operation
  kRecorded,   // median of the value the workload recorded per operation
  kOverhead,   // traced / untraced median operation wall - 1
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Source source;
  const char* key;  // span, counter or recorded-value name
};

// The per-layer metrics, in BENCHMARK.json order. A workload that never
// calls a layer reports 0 for it.
constexpr LayerMetric kLayerMetrics[] = {
    {"gen.world_s", "s", Source::kSetupSpan, "gen.world"},
    {"route.init_s", "s", Source::kSetupSpan, "route.init"},
    {"route.bgp.trees_cached", "count", Source::kRecorded,
     "route.bgp.trees_cached"},
    {"route.bgp.tree_build_ms", "ms", Source::kRecorded,
     "route.bgp.tree_build_ms"},
    {"route.path_cache.hit_rate", "ratio", Source::kRecorded,
     "route.path_cache.hit_rate"},
    {"route.path_cache.misses", "count", Source::kRecorded,
     "route.path_cache.misses"},
    {"route.path_cache.entries", "count", Source::kRecorded,
     "route.path_cache.entries"},
    {"measure.ndt.campaign_s", "s", Source::kOpSpan, "measure.ndt.campaign"},
    {"measure.ndt.campaign_cpu_s", "s", Source::kRecorded,
     "measure.ndt.campaign_cpu_s"},
    {"measure.ndt.tests", "count", Source::kRecorded, "measure.ndt.tests"},
    {"measure.ndt.traceroutes", "count", Source::kRecorded,
     "measure.ndt.traceroutes"},
    {"measure.ndt.traceroutes_skipped_busy", "count", Source::kRecorded,
     "measure.ndt.traceroutes_skipped_busy"},
    {"measure.ndt.columnar_s", "s", Source::kSetupSpan,
     "measure.ndt.columnar"},
    {"measure.match_s", "s", Source::kOpSpan, "measure.match"},
    {"measure.match.fraction", "ratio", Source::kRecorded,
     "measure.match.fraction"},
    {"measure.ark.full_prefix_s", "s", Source::kOpSpan,
     "measure.ark.full_prefix"},
    {"measure.ark.targeted_s", "s", Source::kOpSpan, "measure.ark.targeted"},
    {"measure.ark.traceroutes", "count", Source::kRecorded,
     "measure.ark.traceroutes"},
    {"measure.traceroute.hops", "count", Source::kOpCounter,
     "traceroute.hops"},
    {"measure.traceroute.stars", "count", Source::kOpCounter,
     "traceroute.stars"},
    {"infer.mapit_s", "s", Source::kOpSpan, "infer.mapit"},
    {"infer.mapit.passes", "count", Source::kOpCounter, "mapit.passes"},
    {"infer.mapit.crossings", "count", Source::kOpCounter, "mapit.crossings"},
    {"infer.bdrmap_s", "s", Source::kOpSpan, "infer.bdrmap"},
    {"infer.bdrmap.borders", "count", Source::kRecorded,
     "infer.bdrmap.borders"},
    {"core.diurnal_s", "s", Source::kOpSpan, "core.diurnal"},
    {"core.coverage_s", "s", Source::kOpSpan, "core.coverage"},
    {"serve.event_log_s", "s", Source::kSetupSpan, "serve.event_log"},
    {"serve.submit_s", "s", Source::kOpSpan, "serve.submit"},
    {"serve.snapshot_s", "s", Source::kOpSpan, "serve.snapshot"},
    {"serve.wal.bytes_per_event", "B/event", Source::kRecorded,
     "serve.wal.bytes_per_event"},
    {"serve.wal.segments", "count", Source::kRecorded, "serve.wal.segments"},
    {"serve.recover_s", "s", Source::kOpSpan, "serve.recover"},
    {"serve.dropped", "count", Source::kRecorded, "serve.dropped"},
    {"serve.wal_rejected", "count", Source::kRecorded, "serve.wal_rejected"},
    {"core.pathmodel.suite_reno_s", "s", Source::kOpSpan,
     "core.pathmodel.suite_reno"},
    {"core.pathmodel.suite_cubic_s", "s", Source::kOpSpan,
     "core.pathmodel.suite_cubic"},
    {"core.pathmodel.suite_bbr_s", "s", Source::kOpSpan,
     "core.pathmodel.suite_bbr"},
    {"core.pathmodel.score_s", "s", Source::kOpSpan, "core.pathmodel.score"},
    {"obs.trace_overhead", "ratio", Source::kOverhead, ""},
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string fs_type(const std::string& dir) {
  struct statfs st{};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul:
      return "tmpfs";
    case 0x794c7630ul:
      return "overlayfs";
    case 0xef53ul:
      return "ext4";
    case 0x58465342ul:
      return "xfs";
    case 0x9123683eul:
      return "btrfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: netcong_perfbench --workload "
               "ndt_month|ark_coverage|ingest_replay|pathmodel_cc\n"
               "       [--seed N] [--seconds S] [--trace 0|1] "
               "[--scale full|tiny] [--corrupt-pin]\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corrupt-pin") {
      opt.corrupt_pin = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      opt.trace = v[0] == '1';
    } else if (arg == "--scale") {
      if (std::strcmp(v, "full") == 0) {
        opt.scale = Scale::kFull;
      } else if (std::strcmp(v, "tiny") == 0) {
        opt.scale = Scale::kTiny;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "ndt_month") return make_ndt_month(options);
  if (options.workload == "ark_coverage") return make_ark_coverage(options);
  if (options.workload == "ingest_replay") return make_ingest_replay(options);
  if (options.workload == "pathmodel_cc") return make_pathmodel_cc(options);
  return nullptr;
}

// Events with start in [from_us, to_us).
std::vector<obs::TraceEvent> window(const std::vector<obs::TraceEvent>& all,
                                    double from_us, double to_us) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& ev : all) {
    if (ev.ts_us >= from_us && ev.ts_us < to_us) out.push_back(ev);
  }
  return out;
}

double span_total(const std::vector<LayerRow>& rows, const char* name) {
  for (const LayerRow& r : rows) {
    if (r.name == name) return r.wall_s;
  }
  return 0.0;
}

std::string layer_text(const char* title, const std::vector<LayerRow>& rows,
                       int divisor) {
  std::string out = std::string(title) + "\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-34s %8s %12s %12s %12s\n", "span",
                "calls", "wall_s", "self_s", "wall_s/each");
  out += buf;
  for (const LayerRow& r : rows) {
    std::snprintf(buf, sizeof buf, "  %-34s %8llu %12.6f %12.6f %12.6f\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.calls),
                  r.wall_s, r.self_s, r.wall_s / std::max(divisor, 1));
    out += buf;
  }
  return out;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> wl = make_workload(opt);
  if (!wl) {
    usage();
    return 2;
  }
  if (!make_dirs(opt.out_dir)) {
    std::fprintf(stderr, "cannot create %s\n", opt.out_dir.c_str());
    return 1;
  }
  const std::string run_dir = opt.out_dir + "/" + opt.workload + "-" +
                              scale_name(opt.scale) + "-seed" +
                              std::to_string(opt.seed) +
                              (opt.trace ? "-trace" : "");
  if (!make_dirs(run_dir)) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 1;
  }
  obs::TraceRecorder& tracer = obs::TraceRecorder::global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  tracer.set_enabled(opt.trace);

  // Set-up, several times so setup_s has a median; the last inputs stay.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const double begin = wall_seconds();
    for (int k = 0; k < kMinSetups || wall_seconds() - begin < kMinSetupS;
         ++k) {
      const double t0 = wall_seconds();
      {
        obs::Span span("perfbench.setup");
        wl->setup();
      }
      setup_s.push_back(wall_seconds() - t0);
    }
  };
  set_up();
  const int traced_setups = static_cast<int>(setup_s.size());
  const double setup_end_us = tracer.now_us();
  tracer.set_enabled(false);

  // Closed loop. A traced run spends the first half untraced (for the
  // overhead baseline) and the second half traced.
  Checks checks(opt, opt.workload + "/" + scale_name(opt.scale));
  std::vector<double> wall_s, cpu_s, items_per_s, traced_wall_s;
  std::uint64_t attempted = 0, failed = 0;
  bool traced_phase = false;
  double traced_from_us = 0.0;
  const double start = wall_seconds();
  for (;;) {
    const double elapsed = wall_seconds() - start;
    const bool time_up = elapsed >= opt.seconds;
    if (opt.trace && !traced_phase && !wall_s.empty() &&
        (time_up || elapsed >= opt.seconds / 2)) {
      registry.reset();
      registry.set_enabled(true);
      traced_from_us = tracer.now_us();
      tracer.set_enabled(true);
      traced_phase = true;
    } else if (time_up && attempted > 0 &&
               (!opt.trace || !traced_wall_s.empty())) {
      break;
    }
    checks.begin_op();
    const double t0 = wall_seconds();
    const double c0 = cpu_seconds();
    OpResult r;
    try {
      obs::Span span("perfbench.op");
      r = wl->run_op(checks);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("operation threw: ") + e.what());
    }
    const double wall = wall_seconds() - t0;
    const double cpu = cpu_seconds() - c0;
    ++attempted;
    if (!checks.op_ok()) ++failed;
    std::printf("op %llu%s wall %.6f s cpu %.6f s items %.0f%s\n",
                static_cast<unsigned long long>(attempted),
                traced_phase ? " (traced)" : "", wall, cpu, r.items,
                checks.op_ok() ? "" : " FAILED");
    if (traced_phase) {
      traced_wall_s.push_back(wall);
      continue;
    }
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    const double items_wall = r.items_wall_s > 0.0 ? r.items_wall_s : wall;
    items_per_s.push_back(r.items / items_wall);
  }
  const double traced_to_us = tracer.now_us();
  if (opt.trace) wl->traced_extras();
  tracer.set_enabled(false);
  registry.set_enabled(false);
  // The machine's speed drifts over seconds; set-ups at both ends of the
  // measuring window keep setup_s from resting on one moment of it.
  if (!opt.trace) set_up();

  // Environment and provenance stamp.
  const std::string items = wl->items_name();
  std::vector<std::pair<std::string, std::string>> stamp = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"scale", scale_name(opt.scale)},
      {"trace", opt.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"worker_threads", std::to_string(worker_threads())},
      {"shards", std::to_string(wl->shards_used())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"out_dir_fs", fs_type(opt.out_dir)},
      {"network", "none (no sockets opened)"},
      {"setups", std::to_string(setup_s.size())},
      {"ops", std::to_string(attempted)},
  };
  for (auto& kv : wl->params()) stamp.push_back(kv);
  for (const auto& [k, v] : stamp) {
    std::printf("env %s = %s\n", k.c_str(), v.c_str());
  }

  std::vector<Metric> metrics;
  std::vector<Metric> readouts;  // result.json only, not the JSON line
  if (!opt.trace) {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"wall_s", "s", median(wall_s)},
        {"cpu_s", "s", median(cpu_s)},
        {"peak_rss_mib", "MiB", peak_rss_mib()},
        {"items_per_s", "1/s", median(items_per_s)},
    };
    // Tail percentile of the per-operation wall time, when there are
    // enough operations for one.
    auto [pct, tail] = tail_percentile(wall_s);
    std::printf("metric wall_s median %.6f s", median(wall_s));
    if (pct > 0) std::printf(", p%d %.6f s", pct, tail);
    std::printf(" (n=%zu)\n", wall_s.size());
    std::printf("metric %s_per_s %.3f 1/s (n=%zu)\n", items.c_str(),
                median(items_per_s), items_per_s.size());
    readouts.push_back({items + "_per_s", "1/s", median(items_per_s)});
    for (const Readout& r : wl->readouts()) {
      std::printf("metric %s %.6g %s (n=%zu", r.name.c_str(), r.value,
                  r.unit.c_str(), r.samples);
      if (r.tail_pct > 0) std::printf(", p%d %.6g", r.tail_pct, r.tail_value);
      std::printf(")\n");
      readouts.push_back({r.name, r.unit, r.value});
    }
  } else {
    const std::vector<obs::TraceEvent> all = tracer.collect();
    const std::vector<LayerRow> setup_rows =
        layer_table(window(all, 0.0, setup_end_us));
    const std::vector<LayerRow> op_rows =
        layer_table(window(all, traced_from_us, traced_to_us));
    const obs::MetricsSnapshot counters = registry.snapshot();
    const double traced_ops = static_cast<double>(traced_wall_s.size());
    for (const LayerMetric& m : kLayerMetrics) {
      double v = 0.0;
      switch (m.source) {
        case Source::kSetupSpan:
          v = span_total(setup_rows, m.key) / traced_setups;
          break;
        case Source::kOpSpan:
          v = span_total(op_rows, m.key) / traced_ops;
          break;
        case Source::kOpCounter:
          v = static_cast<double>(counters.counter(m.key)) / traced_ops;
          break;
        case Source::kRecorded:
          v = wl->rec().median_of(m.key);
          break;
        case Source::kOverhead:
          v = median(traced_wall_s) / median(wall_s) - 1.0;
          break;
      }
      metrics.push_back({m.name, m.unit, v});
    }
    const std::string table =
        layer_text("set-up spans (per set-up = wall_s / calls of "
                   "perfbench.setup)",
                   setup_rows, traced_setups) +
        layer_text("traced-operation spans", op_rows,
                   static_cast<int>(traced_wall_s.size()));
    std::printf("%s", table.c_str());
    if (tracer.dropped() > 0) {
      std::printf("warning: %llu trace events lost to ring overflow\n",
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    write_file(run_dir + "/layers.txt", table);
    write_file(run_dir + "/trace.json", tracer.to_chrome_json());
    write_file(run_dir + "/metrics.json", counters.to_json());
    std::printf("trace written to %s/trace.json\n", run_dir.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const bool correct = failed == 0;
  std::string stamp_json = "{";
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    if (i > 0) stamp_json += ", ";
    stamp_json += json_string(stamp[i].first) + ": " +
                  json_string(stamp[i].second);
  }
  stamp_json += "}";
  std::vector<Metric> all = metrics;
  all.insert(all.end(), readouts.begin(), readouts.end());
  const std::string all_metrics = metrics_json(all);
  write_file(run_dir + "/result.json",
             "{\"env\": " + stamp_json + ", \"correct\": " +
                 (correct ? "true" : "false") + ", \"attempted\": " +
                 std::to_string(attempted) + ", \"failed\": " +
                 std::to_string(failed) + ", \"metrics\": " + all_metrics +
                 "}\n");
  std::printf("failed_frac %.6g (%llu of %llu operations)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace netcong::perfbench

int main(int argc, char** argv) {
  netcong::perfbench::Options opt;
  if (!netcong::perfbench::parse_args(argc, argv, opt)) {
    netcong::perfbench::usage();
    return 2;
  }
  try {
    return netcong::perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark set-up failed: %s\n", e.what());
    return 1;
  }
}
