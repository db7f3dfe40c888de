// netcong command-line tool: generate worlds, run measurement campaigns,
// export M-Lab-style datasets, and run per-VP coverage analyses without
// writing any C++.
//
// Run `netcong_cli` with no arguments for the subcommand list — the usage
// text and the dispatch both come from the kSubcommands registry below, so
// a new subcommand is one table entry plus its cmd_* function.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/anomaly_eval.h"
#include "core/coverage.h"
#include "core/diurnal.h"
#include "core/pathmodel_eval.h"
#include "measure/corpus.h"
#include "gen/workload.h"
#include "gen/world.h"
#include "infer/alias.h"
#include "infer/bdrmap.h"
#include "io/export.h"
#include "measure/adversary.h"
#include "measure/alexa.h"
#include "measure/ark.h"
#include "measure/fingerprint.h"
#include "measure/matching.h"
#include "measure/ndt.h"
#include "measure/platform.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "route/bgp.h"
#include "route/forwarding.h"
#include "route/path_cache.h"
#include "serve/event.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "sim/faults.h"
#include "sim/throughput.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace netcong;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> stray;  // positionals that are not option values

  std::string get(const std::string& key, const std::string& def) const {
    auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  int get_int(const std::string& key, int def) const {
    auto it = options.find(key);
    return it == options.end() ? def : std::atoi(it->second.c_str());
  }
  double get_double(const std::string& key, double def) const {
    auto it = options.find(key);
    return it == options.end() ? def : std::atof(it->second.c_str());
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.stray.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "1";
    }
  }
  return args;
}

gen::GeneratorConfig config_from(const Args& args) {
  std::string scale = args.get("scale", "small");
  gen::GeneratorConfig cfg;
  if (scale == "full") {
    cfg = gen::GeneratorConfig::full();
  } else if (scale == "tiny") {
    cfg = gen::GeneratorConfig::tiny();
  } else {
    cfg = gen::GeneratorConfig::small();
  }
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  return cfg;
}

int cmd_topology(const Args& args) {
  gen::World world = gen::generate_world(config_from(args));
  const topo::Topology& t = *world.topo;
  std::printf("ASes: %zu  routers: %zu  interfaces: %zu\n", t.as_count(),
              t.routers().size(), t.interfaces().size());
  std::printf("links: %zu (%zu interdomain)  hosts: %zu\n", t.links().size(),
              t.interdomain_link_count(), t.hosts().size());
  std::printf("congested links (ground truth): %zu\n",
              world.congested_links.size());
  util::TextTable table({"ISP", "ASNs", "clients", "peers of primary"});
  for (const auto& [name, asns] : world.isp_asns) {
    int peers = 0;
    for (const auto& [nbr, rel] : t.relationships().neighbors(asns[0])) {
      if (rel == topo::RelType::kPeer) ++peers;
    }
    table.add_row({name, std::to_string(asns.size()),
                   std::to_string(world.clients_of(name).size()),
                   std::to_string(peers)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_campaign(const Args& args) {
  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);
  sim::ThroughputModel model(*world.topo, *world.traffic);
  measure::Platform mlab("M-Lab", *world.topo, world.mlab_servers);

  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)) + 1);
  gen::WorkloadConfig wl;
  wl.days = args.get_int("days", 14);
  wl.mean_tests_per_client = args.get_double("tests-per-client", 8.0);
  auto schedule = gen::crowdsourced_schedule(world, world.clients, wl, rng);
  route::PathCache path_cache(fwd);
  measure::NdtCampaign campaign(world, fwd, model, mlab,
                                measure::CampaignConfig{});
  campaign.set_path_cache(&path_cache);
  auto result = campaign.run(schedule, rng);
  measure::MatchStats stats;
  auto matched = measure::match_tests(result.tests, result.traceroutes,
                                      *world.topo, {}, &stats);
  std::printf("tests: %zu  traceroutes: %zu  matched: %.1f%%\n",
              result.tests.size(), result.traceroutes.size(),
              100.0 * stats.fraction());

  if (args.has("out")) {
    std::string dir = args.get("out", ".");
    util::Status st =
        io::export_campaign(world, result.tests, result.traceroutes, matched,
                            dir, !args.has("no-truth"), &result.quality);
    if (!st.ok()) {
      std::fprintf(stderr, "export: %s\n", st.error().c_str());
      return 1;
    }
    std::printf("wrote datasets to %s/{ndt_tests,traceroute_hops,matches,"
                "interdomain_links,data_quality}.csv\n",
                dir.c_str());
  }
  return 0;
}

int cmd_faults(const Args& args) {
  if (args.has("list")) {
    util::TextTable table({"site", "what it breaks"});
    for (sim::FaultSite site : sim::all_fault_sites()) {
      table.add_row({sim::fault_site_name(site),
                     sim::fault_site_description(site)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }

  std::string severity_text = args.get("severity", "0.2");
  auto config = sim::parse_fault_severity(severity_text);
  if (!config) {
    std::fprintf(stderr, "--severity: %s\n", config.error().c_str());
    return 1;
  }
  std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);
  sim::ThroughputModel model(*world.topo, *world.traffic);
  measure::Platform mlab("M-Lab", *world.topo, world.mlab_servers);

  gen::WorkloadConfig wl;
  wl.days = args.get_int("days", 14);
  wl.mean_tests_per_client = args.get_double("tests-per-client", 8.0);
  util::Rng sched_rng(seed + 1);
  auto schedule = gen::crowdsourced_schedule(world, world.clients, wl,
                                             sched_rng);
  route::PathCache path_cache(fwd);

  auto run_once = [&](const sim::FaultInjector* faults) {
    measure::NdtCampaign campaign(world, fwd, model, mlab,
                                  measure::CampaignConfig{});
    campaign.set_path_cache(&path_cache);
    campaign.set_faults(faults);
    util::Rng rng(seed + 2);
    return campaign.run(schedule, rng);
  };

  auto clean = run_once(nullptr);
  sim::FaultInjector injector(*config, seed);
  auto faulted = run_once(&injector);

  measure::MatchStats clean_stats, faulted_stats;
  auto clean_matched = measure::match_tests(
      clean.tests, clean.traceroutes, *world.topo, {}, &clean_stats);
  auto faulted_matched = measure::match_tests(
      faulted.tests, faulted.traceroutes, *world.topo, {}, &faulted_stats);

  std::printf("fault severity %s (seed %llu)\n", severity_text.c_str(),
              static_cast<unsigned long long>(seed));
  util::TextTable quality({"metric", "value"});
  for (const auto& [metric, value] : faulted.quality.rows()) {
    quality.add_row({metric, std::to_string(value)});
  }
  quality.add_row({"consistent", faulted.quality.consistent() ? "yes" : "NO"});
  std::printf("%s", quality.render().c_str());

  util::TextTable cmp({"campaign", "tests", "traceroutes", "matched/eligible",
                       "matched/all"});
  auto row = [&](const char* name, const measure::CampaignResult& r,
                 const measure::MatchStats& s) {
    cmp.add_row({name, std::to_string(r.tests.size()),
                 std::to_string(r.traceroutes.size()),
                 util::format("%.1f%%", 100.0 * s.fraction()),
                 util::format("%.1f%%", 100.0 * s.coverage())});
  };
  row("clean", clean, clean_stats);
  row("faulted", faulted, faulted_stats);
  std::printf("%s", cmp.render().c_str());
  if (!faulted.quality.consistent()) {
    std::fprintf(stderr, "data-quality report is NOT consistent\n");
    return 1;
  }

  if (args.has("out")) {
    std::string dir = args.get("out", ".");
    util::Status st =
        io::export_campaign(world, faulted.tests, faulted.traceroutes,
                            faulted_matched, dir, !args.has("no-truth"),
                            &faulted.quality);
    if (!st.ok()) {
      std::fprintf(stderr, "export: %s\n", st.error().c_str());
      return 1;
    }
    std::printf("wrote faulted datasets to %s (see data_quality.csv)\n",
                dir.c_str());
  }
  return 0;
}

int cmd_coverage(const Args& args) {
  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);
  infer::Ip2As ip2as(*world.topo);
  infer::OrgMap orgs(*world.topo);
  infer::AliasResolver aliases(*world.topo, 0.88, 42);
  util::Rng rng(9);

  std::string want = args.get("vp", "");
  util::TextTable table({"VP", "bdrmap AS", "M-Lab AS", "Speedtest AS",
                         "Alexa-path AS not via M-Lab"});
  for (std::uint32_t vp : world.ark_vps) {
    const topo::Host& host = world.topo->host(vp);
    if (!want.empty() && host.label != want) continue;
    measure::ArkCampaignOptions opt;
    auto full = measure::ark_full_prefix_campaign(world, fwd, vp, opt, rng);
    auto bdr = infer::run_bdrmap(full, host.asn, ip2as, orgs,
                                 world.topo->relationships(), aliases);
    auto to_mlab = measure::ark_targeted_campaign(world, fwd, vp,
                                                  world.mlab_servers, opt, rng);
    auto to_st = measure::ark_targeted_campaign(
        world, fwd, vp, world.speedtest_servers_2017, opt, rng);
    auto alexa = measure::resolve_alexa_targets(world, vp);
    auto to_alexa =
        measure::ark_targeted_campaign(world, fwd, vp, alexa, opt, rng);
    auto cov = core::analyze_coverage(host.label, "", bdr, to_mlab, to_st,
                                      to_alexa, ip2as, orgs, aliases);
    auto ov = core::overlap(cov.mlab, cov.alexa);
    table.add_row({host.label,
                   std::to_string(cov.discovered.as_level.size()),
                   std::to_string(cov.mlab.as_level.size()),
                   std::to_string(cov.speedtest.as_level.size()),
                   std::to_string(ov.alexa_not_platform_as)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_diurnal(const Args& args) {
  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);
  sim::ThroughputModel model(*world.topo, *world.traffic);
  measure::Platform mlab("M-Lab", *world.topo, world.mlab_servers);
  util::Rng rng(7);

  std::string source = args.get("source", "GTT");
  std::string isp = args.get("isp", "AT&T");
  auto clients = world.clients_of(isp);
  if (clients.empty()) {
    std::fprintf(stderr, "unknown ISP %s\n", isp.c_str());
    return 1;
  }
  gen::WorkloadConfig wl;
  wl.days = args.get_int("days", 14);
  wl.mean_tests_per_client = 10.0;
  auto schedule = gen::crowdsourced_schedule(world, clients, wl, rng);
  route::PathCache path_cache(fwd);
  measure::NdtCampaign campaign(world, fwd, model, mlab,
                                measure::CampaignConfig{});
  campaign.set_path_cache(&path_cache);
  auto result = campaign.run(schedule, rng);

  auto source_of = [&](const measure::NdtRecord& t) {
    return world.topo->as_info(t.server_asn).name == source ? source
                                                            : std::string();
  };
  auto isp_of = [&](const measure::NdtRecord&) { return isp; };
  auto groups = core::build_diurnal_groups(result.tests, world, source_of,
                                           isp_of);
  auto it = groups.find(core::GroupKey{source, isp});
  if (it == groups.end()) {
    std::fprintf(stderr, "no %s -> %s tests observed\n", source.c_str(),
                 isp.c_str());
    return 1;
  }
  auto summary = it->second.throughput.summarize();
  util::TextTable table({"local hour", "samples", "median Mbps"});
  for (int h = 0; h < 24; ++h) {
    auto idx = static_cast<std::size_t>(h);
    table.add_row({std::to_string(h), std::to_string(summary.count[idx]),
                   summary.count[idx] ? util::format("%.1f", summary.median[idx])
                                      : "-"});
  }
  std::printf("%s -> %s (%zu tests)\n%s", source.c_str(), isp.c_str(),
              it->second.tests, table.render().c_str());
  auto cmp = stats::compare_peak_offpeak(it->second.throughput);
  std::printf("relative peak drop: %.0f%%\n", 100.0 * cmp.relative_drop);
  return 0;
}

int cmd_stats(const Args& args) {
  // Flip the whole observability stack on, then run an instrumented
  // campaign. The campaign output is bit-identical to an uninstrumented
  // run (the obs determinism contract); this command exists to surface the
  // side-channel numbers.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  obs::hook_logging();
  reg.set_enabled(true);
  recorder.set_enabled(true);

  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);
  sim::ThroughputModel model(*world.topo, *world.traffic);
  measure::Platform mlab("M-Lab", *world.topo, world.mlab_servers);

  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)) + 1);
  gen::WorkloadConfig wl;
  wl.days = args.get_int("days", 14);
  wl.mean_tests_per_client = args.get_double("tests-per-client", 8.0);
  auto schedule = gen::crowdsourced_schedule(world, world.clients, wl, rng);
  route::PathCache path_cache(fwd);
  measure::NdtCampaign campaign(world, fwd, model, mlab,
                                measure::CampaignConfig{});
  campaign.set_path_cache(&path_cache);
  auto result = campaign.run(schedule, rng);
  std::printf("tests: %zu  traceroutes: %zu\n", result.tests.size(),
              result.traceroutes.size());

  obs::MetricsSnapshot snap = reg.snapshot();
  util::TextTable counters({"counter", "value"});
  for (const auto& [name, value] : snap.counters) {
    counters.add_row({name, std::to_string(value)});
  }
  std::printf("%s", counters.render().c_str());
  if (!snap.gauges.empty()) {
    util::TextTable gauges({"gauge", "value"});
    for (const auto& [name, value] : snap.gauges) {
      gauges.add_row({name, util::format("%.3f", value)});
    }
    std::printf("%s", gauges.render().c_str());
  }
  if (!snap.histograms.empty()) {
    util::TextTable hists({"histogram", "count", "mean"});
    for (const auto& [name, h] : snap.histograms) {
      hists.add_row({name, std::to_string(h.count),
                     h.count ? util::format("%.3f", h.sum / h.count) : "-"});
    }
    std::printf("%s", hists.render().c_str());
  }

  if (args.has("out")) {
    std::string dir = args.get("out", ".");
    util::Status st =
        io::export_observability(snap, recorder.to_chrome_json(), dir);
    if (!st.ok()) {
      std::fprintf(stderr, "export: %s\n", st.error().c_str());
      return 1;
    }
    std::printf("wrote %s/metrics.json and %s/trace.json "
                "(load trace.json in chrome://tracing)\n",
                dir.c_str(), dir.c_str());
  }
  return 0;
}

// Strict unsigned parse for flag values: the whole string must be digits
// and fit under `max`. atoi-style silent truncation must not turn a typo
// into a surprising port or retention window.
bool parse_flag_uint(const std::string& text, unsigned long long max,
                     unsigned long long* out) {
  if (text.empty() || text.size() > 18) return false;
  unsigned long long v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<unsigned long long>(c - '0');
  }
  if (v > max) return false;
  *out = v;
  return true;
}

int cmd_serve(const Args& args) {
  // Validate flags with values from a closed set before any heavy work;
  // a bad value is a usage error (exit 2), not a runtime failure.
  std::string policy = args.get("policy", "block");
  if (policy != "block" && policy != "drop") {
    std::fprintf(stderr, "unknown --policy '%s' (block|drop)\n",
                 policy.c_str());
    return 2;
  }
  unsigned long long listen_port = 0;
  bool listen = args.has("listen");
  if (listen &&
      !parse_flag_uint(args.get("listen", ""), 65535, &listen_port)) {
    std::fprintf(stderr, "bad --listen '%s' (port 0-65535, 0 = ephemeral)\n",
                 args.get("listen", "").c_str());
    return 2;
  }
  std::string connect_host;
  unsigned long long connect_port = 0;
  bool connect = args.has("connect");
  if (connect) {
    std::string hp = args.get("connect", "");
    std::size_t colon = hp.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        !parse_flag_uint(hp.substr(colon + 1), 65535, &connect_port) ||
        connect_port == 0) {
      std::fprintf(stderr, "bad --connect '%s' (expected HOST:PORT)\n",
                   hp.c_str());
      return 2;
    }
    connect_host = hp.substr(0, colon);
  }
  if (listen && connect) {
    std::fprintf(stderr, "--listen and --connect are mutually exclusive\n");
    return 2;
  }
  unsigned long long epoch_events = 8192;
  if (args.has("epoch") &&
      !parse_flag_uint(args.get("epoch", ""), 1ull << 40, &epoch_events)) {
    std::fprintf(stderr, "bad --epoch '%s' (events per epoch, >= 0)\n",
                 args.get("epoch", "").c_str());
    return 2;
  }
  unsigned long long retain_epochs = 0;
  if (args.has("retain") &&
      !parse_flag_uint(args.get("retain", ""), 1ull << 40, &retain_epochs)) {
    std::fprintf(stderr, "bad --retain '%s' (epochs to retain, 0 = keep all)\n",
                 args.get("retain", "").c_str());
    return 2;
  }

  // Durability: recover whatever a previous (possibly crashed) run left in
  // the WAL directory, then open a writer for this run's events. An
  // unusable directory is a usage error, caught before the world builds.
  std::string wal_dir = args.get("wal-dir", "");
  serve::WalRecovery recovered;
  serve::WalWriter wal;
  if (!wal_dir.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(wal_dir, ec)) {
      util::Result<serve::WalRecovery> rec = serve::recover_wal(wal_dir);
      if (!rec.ok()) {
        std::fprintf(stderr, "bad --wal-dir: %s\n", rec.error().c_str());
        return 2;
      }
      recovered = std::move(rec.value());
    }
    util::Status st = wal.open(wal_dir, serve::WalOptions{});
    if (!st.ok()) {
      std::fprintf(stderr, "bad --wal-dir: %s\n", st.error().c_str());
      return 2;
    }
  }

  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);
  sim::ThroughputModel model(*world.topo, *world.traffic);
  measure::Platform mlab("M-Lab", *world.topo, world.mlab_servers);

  // Fixed-size synthetic schedule (round-robin clients, constant arrival
  // rate), then flattened into the arrival-ordered event log the service
  // would see in production.
  std::size_t n = static_cast<std::size_t>(args.get_int("tests", 20000));
  std::vector<gen::TestRequest> schedule;
  schedule.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gen::TestRequest req;
    req.client = world.clients[i % world.clients.size()];
    req.utc_time_hours = static_cast<double>(i) / 5000.0;
    schedule.push_back(req);
  }
  measure::NdtCampaign campaign(world, fwd, model, mlab,
                                measure::CampaignConfig{});
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)) + 1);
  std::vector<serve::IngestEvent> log =
      serve::event_log_from(campaign.run_columnar(schedule, rng));

  double rate = args.get_double("rate", 0.0);
  auto pace = [&](std::size_t i,
                  std::chrono::steady_clock::time_point start) {
    if (rate > 0.0 && (i & 0xff) == 0xff) {
      double due_s = static_cast<double>(i + 1) / rate;
      double wall_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      if (wall_s < due_s) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due_s - wall_s));
      }
    }
  };

  // Pure producer mode: stream the generated log to a daemon elsewhere
  // and exit — no local service at all.
  if (connect) {
    serve::FrameClient client;
    util::Status st = client.connect(
        connect_host, static_cast<std::uint16_t>(connect_port));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.error().c_str());
      return 1;
    }
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < log.size(); ++i) {
      util::Status sent = client.send(log[i]);
      if (!sent.ok()) {
        std::fprintf(stderr, "%s\n", sent.error().c_str());
        return 1;
      }
      pace(i, start);
    }
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    std::printf("sent %llu events to %s:%llu in %.2f s (%.0f events/sec)\n",
                static_cast<unsigned long long>(client.events_sent()),
                connect_host.c_str(), connect_port, wall_s,
                static_cast<double>(client.events_sent()) / wall_s);
    return 0;
  }

  infer::Ip2As ip2as(*world.topo);
  infer::OrgMap orgs(*world.topo);
  infer::AliasResolver aliases(*world.topo, 0.9,
                               static_cast<std::uint64_t>(args.get_int("seed", 42)));

  serve::ServeConfig scfg;
  scfg.shards = static_cast<std::size_t>(args.get_int("shards", 0));
  scfg.queue_capacity = static_cast<std::size_t>(args.get_int("queue", 1024));
  if (policy == "drop") scfg.policy = serve::OverflowPolicy::kDrop;
  scfg.epoch_events = epoch_events;
  scfg.retain_epochs = retain_epochs;
  if (!world.ark_vps.empty()) {
    scfg.vp_as = world.topo->host(world.ark_vps[0]).asn;
  }
  serve::IngestService svc(ip2as, orgs, scfg);
  svc.set_relationships(&world.topo->relationships(), &aliases);
  if (wal.is_open()) svc.attach_wal(&wal);
  svc.start();

  // Crash recovery: replay the surviving WAL prefix before any new event,
  // so the service resumes exactly where the dead process stopped. The
  // replayed events re-enter the (truncated, reopened) WAL through the
  // normal submit path, keeping the log self-contained.
  for (const serve::IngestEvent& ev : recovered.events) svc.submit(ev);
  if (!recovered.events.empty() || recovered.truncated_tail) {
    std::printf("wal: recovered %zu events from %s (%llu segments, "
                "%llu bytes%s%s)\n",
                recovered.events.size(), wal_dir.c_str(),
                static_cast<unsigned long long>(recovered.segments_scanned),
                static_cast<unsigned long long>(recovered.bytes_scanned),
                recovered.truncated_tail ? ", torn tail repaired: " : "",
                recovered.truncated_tail ? recovered.tail_error.c_str() : "");
  }

  // Optional socket front-end: the fresh log is fed through a loopback
  // client to our own listener, exercising the full framed path instead
  // of in-process submits.
  serve::FrameListener listener(svc, serve::NetConfig{});
  serve::FrameClient self_feed;
  if (listen) {
    util::Status st =
        listener.start(static_cast<std::uint16_t>(listen_port));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.error().c_str());
      return 1;
    }
    util::Status conn = self_feed.connect("127.0.0.1", listener.port());
    if (!conn.ok()) {
      std::fprintf(stderr, "%s\n", conn.error().c_str());
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u\n", listener.port());
  }

  // Replay at --rate events/sec (0 = unpaced), snapshotting --snapshots
  // times at even intervals through the log.
  std::size_t snapshots =
      static_cast<std::size_t>(args.get_int("snapshots", 4));
  if (snapshots == 0) snapshots = 1;
  std::size_t stride = log.size() / snapshots + 1;
  std::vector<double> snapshot_ms;
  serve::ServiceSnapshot last;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (listen) {
      util::Status sent = self_feed.send(log[i]);
      if (!sent.ok()) {
        std::fprintf(stderr, "%s\n", sent.error().c_str());
        return 1;
      }
    } else {
      svc.submit(log[i]);
    }
    pace(i, start);
    if ((i + 1) % stride == 0) {
      last = svc.snapshot();
      snapshot_ms.push_back(last.snapshot_ms);
    }
  }
  if (listen) {
    // All frames are in flight; wait until the listener has classified
    // every one before the final drain.
    self_feed.close();
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      serve::NetCounters net = listener.counters();
      if (net.events_submitted + net.events_dropped +
              net.frames_rejected() >= log.size()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // Graceful shutdown: drain everything in flight, final snapshot, stop,
  // sync the WAL.
  last = svc.drain_and_stop();
  snapshot_ms.push_back(last.snapshot_ms);
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  serve::ServiceCounters counters = svc.counters();
  if (listen) listener.stop();

  std::sort(snapshot_ms.begin(), snapshot_ms.end());
  auto pct = [&](double p) {
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(snapshot_ms.size() - 1));
    return snapshot_ms[idx];
  };

  std::printf("shards: %zu  queue: %zu  policy: %s\n", svc.shards(),
              scfg.queue_capacity, serve::overflow_policy_name(scfg.policy));
  std::printf("events: %llu submitted, %llu consumed, %llu dropped\n",
              static_cast<unsigned long long>(counters.submitted),
              static_cast<unsigned long long>(counters.consumed),
              static_cast<unsigned long long>(counters.dropped));
  if (retain_epochs > 0) {
    std::printf("retention: %llu-event epochs, keep %llu — evicted %llu "
                "events, watermark %llu\n",
                epoch_events, retain_epochs,
                static_cast<unsigned long long>(counters.evicted),
                static_cast<unsigned long long>(last.eviction_watermark));
  }
  if (wal.is_open()) {
    serve::WalStats ws = wal.stats();
    std::printf("wal: %llu records in %llu segments (%llu bytes, %llu "
                "syncs) at %s\n",
                static_cast<unsigned long long>(ws.appended),
                static_cast<unsigned long long>(ws.segments_created),
                static_cast<unsigned long long>(ws.bytes_written),
                static_cast<unsigned long long>(ws.syncs), wal_dir.c_str());
  }
  if (listen) {
    serve::NetCounters net = listener.counters();
    std::printf("socket: %llu frames ok, %llu rejected, %llu events "
                "submitted, %llu dropped%s\n",
                static_cast<unsigned long long>(net.frames_ok),
                static_cast<unsigned long long>(net.frames_rejected()),
                static_cast<unsigned long long>(net.events_submitted),
                static_cast<unsigned long long>(net.events_dropped),
                net.consistent() ? "" : "  [INCONSISTENT]");
  }
  std::printf("wall: %.2f s  events/sec: %.0f\n", wall_s,
              static_cast<double>(counters.consumed) / wall_s);
  std::printf("snapshots: %zu  staleness p50: %.2f ms  p99: %.2f ms\n",
              snapshot_ms.size(), pct(0.50), pct(0.99));
  std::printf("final snapshot: %llu events (%llu tests, %llu traces), "
              "%zu interfaces assigned, %zu crossings, %zu borders, "
              "fingerprint %016llx\n",
              static_cast<unsigned long long>(last.events_consumed),
              static_cast<unsigned long long>(last.ndt_tests),
              static_cast<unsigned long long>(last.traces),
              last.mapit.operating_as.size(), last.mapit.crossings.size(),
              last.borders ? last.borders->borders.size() : 0,
              static_cast<unsigned long long>(last.fingerprint));
  return 0;
}

int cmd_pathmodel(const Args& args) {
  // Closed-set flag validation first (exit 2), before any simulation runs.
  namespace sp = sim::packet;
  std::string cc_text = args.get("cc", "all");
  std::vector<sp::CcAlgo> ccs;
  if (cc_text == "all") {
    ccs = {sp::CcAlgo::kNewReno, sp::CcAlgo::kCubic, sp::CcAlgo::kBbr};
  } else {
    sp::CcAlgo cc;
    if (!sp::parse_cc_algo(cc_text, &cc)) {
      std::fprintf(stderr, "unknown --cc '%s' (reno|cubic|bbr|all)\n",
                   cc_text.c_str());
      return 2;
    }
    ccs = {cc};
  }
  std::string scen_text = args.get("scenario", "all");
  core::PathModelScenario which;
  if (!core::parse_pathmodel_scenario(scen_text, &which)) {
    std::fprintf(stderr,
                 "unknown --scenario '%s' "
                 "(bandwidth|sender|interdomain|access|all)\n",
                 scen_text.c_str());
    return 2;
  }
  unsigned long long per_class = 3;
  if (args.has("tests") &&
      (!parse_flag_uint(args.get("tests", ""), 1000, &per_class) ||
       per_class == 0)) {
    std::fprintf(stderr, "bad --tests '%s' (instances per class, 1-1000)\n",
                 args.get("tests", "").c_str());
    return 2;
  }
  std::FILE* out = nullptr;
  if (args.has("out")) {
    out = std::fopen(args.get("out", "").c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bad --out '%s': cannot open for writing\n",
                   args.get("out", "").c_str());
      return 2;
    }
    std::fprintf(out,
                 "cc,scenario,access_mbps,rtt_ms,competing_flows,"
                 "goodput_mbps,baseline_drop,truth_label,predicted_label,"
                 "truth_site,predicted_site,btlbw_mbps,rtprop_ms,"
                 "bdp_packets,avg_inflight,steady_p10_rtt_ms\n");
  }

  for (sp::CcAlgo cc : ccs) {
    std::vector<core::PathModelCase> cases =
        core::run_pathmodel_suite(cc, which, static_cast<int>(per_class));
    util::TextTable table({"scenario", "access", "rtt", "goodput", "truth",
                           "predicted", "site"});
    for (const core::PathModelCase& c : cases) {
      bool label_ok = c.result.label == c.truth_label;
      bool site_ok = c.result.site == c.truth_site;
      table.add_row(
          {core::pathmodel_scenario_name(c.scenario),
           util::format("%.0f Mbps", c.access_mbps),
           util::format("%.0f ms", c.rtt_ms),
           util::format("%.1f Mbps", c.goodput_mbps),
           infer::flow_label_name(c.truth_label),
           util::format("%s%s", infer::flow_label_name(c.result.label),
                        label_ok ? "" : " *"),
           util::format("%s%s", infer::bottleneck_site_name(c.result.site),
                        site_ok ? "" : " *")});
      if (out != nullptr) {
        std::fprintf(
            out, "%s,%s,%.3f,%.3f,%d,%.4f,%.4f,%s,%s,%s,%s,%.3f,%.3f,%.2f,"
            "%.2f,%.3f\n",
            sp::cc_algo_name(cc), core::pathmodel_scenario_name(c.scenario),
            c.access_mbps, c.rtt_ms, c.competing_flows, c.goodput_mbps,
            c.baseline_drop, infer::flow_label_name(c.truth_label),
            infer::flow_label_name(c.result.label),
            infer::bottleneck_site_name(c.truth_site),
            infer::bottleneck_site_name(c.result.site), c.result.btlbw_mbps,
            c.result.rtprop_ms, c.result.bdp_packets,
            c.result.avg_inflight_packets, c.result.steady_p10_rtt_ms);
      }
    }
    std::printf("cc: %s (%zu cases; * marks a miss)\n%s", sp::cc_algo_name(cc),
                cases.size(), table.render().c_str());
    if (which == core::PathModelScenario::kAll) {
      core::PathModelScore score = core::score_pathmodel(cases);
      std::printf(
          "  congested-vs-not: precision %.3f  recall %.3f  F1 %.3f "
          "(threshold baseline F1 %.3f at drop > %.2f)\n"
          "  label accuracy: %.3f  localization: %d/%d\n\n",
          score.congested.precision, score.congested.recall,
          score.congested.f1, score.baseline_best_f1,
          score.baseline_best_threshold, score.label_accuracy,
          score.localization_correct, score.localization_total);
    } else {
      std::printf("\n");
    }
  }
  if (out != nullptr) {
    std::fclose(out);
    std::printf("wrote per-case rows to %s\n", args.get("out", "").c_str());
  }
  return 0;
}

int cmd_adversary(const Args& args) {
  // Closed-set flag validation first (exit 2), before any world generates.
  std::string scen = args.get("scenario", "churn");
  bool churn = scen == "churn";
  bool withdraw = scen == "withdraw";
  bool asym = scen == "asym";
  bool stars = scen == "stars";
  if (!churn && !withdraw && !asym && !stars) {
    std::fprintf(stderr, "unknown --scenario '%s' (churn|withdraw|asym|stars)\n",
                 scen.c_str());
    return 2;
  }
  double fraction = args.get_double("fraction", 0.3);
  if (fraction < 0.0 || fraction > 1.0) {
    std::fprintf(stderr, "bad --fraction '%s' (0..1)\n",
                 args.get("fraction", "").c_str());
    return 2;
  }
  unsigned long long links = 1;
  if (args.has("links") &&
      (!parse_flag_uint(args.get("links", ""), 1000, &links) || links == 0)) {
    std::fprintf(stderr, "bad --links '%s' (withdrawn border links, 1-1000)\n",
                 args.get("links", "").c_str());
    return 2;
  }
  unsigned long long days = 4;
  if (args.has("days") &&
      (!parse_flag_uint(args.get("days", ""), 365, &days) || days == 0)) {
    std::fprintf(stderr, "bad --days '%s' (1-365)\n",
                 args.get("days", "").c_str());
    return 2;
  }
  double epoch = args.get_double("epoch", static_cast<double>(days) * 12.0);
  if (epoch < 0.0 || epoch > static_cast<double>(days) * 24.0) {
    std::fprintf(stderr, "bad --epoch '%s' (hours, 0..days*24)\n",
                 args.get("epoch", "").c_str());
    return 2;
  }

  std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  gen::World world = gen::generate_world(config_from(args));
  route::BgpRouting bgp(*world.topo);
  route::Forwarder fwd(*world.topo, bgp);

  sim::AdversaryConfig acfg;
  if (churn) {
    acfg = sim::AdversaryConfig::churn(epoch, fraction);
  } else if (withdraw) {
    acfg = sim::AdversaryConfig::withdrawal(epoch, static_cast<int>(links));
  } else if (asym) {
    acfg = sim::AdversaryConfig::asymmetric(fraction);
  } else {
    acfg = sim::AdversaryConfig::misleading_stars(fraction);
  }
  sim::AdversaryScenario scenario(*world.topo, bgp, acfg, seed ^ 0xad5ull);

  if (stars) {
    if (world.ark_vps.empty()) {
      std::fprintf(stderr, "world has no Ark VPs\n");
      return 1;
    }
    util::Rng rng(seed + 3);
    measure::MisleadingStarsResult pair = measure::misleading_stars_corpus(
        world, fwd, scenario, world.ark_vps[0], {}, rng);
    std::printf("misleading stars: %zu/%zu routers cloaked, %zu truth hops "
                "relabeled across %zu traces\n",
                pair.cloaked_routers, world.topo->routers().size(),
                pair.cloaked_hops, pair.observed.size());
    std::printf("observed fingerprints: %016llx vs %016llx (%s)\n",
                static_cast<unsigned long long>(pair.observed_fp_a),
                static_cast<unsigned long long>(pair.observed_fp_b),
                pair.observed_fp_a == pair.observed_fp_b ? "equal" : "DIFFER");
    std::printf("truth fingerprints:    %016llx vs %016llx (%s)\n",
                static_cast<unsigned long long>(pair.truth_fp_a),
                static_cast<unsigned long long>(pair.truth_fp_b),
                pair.truth_fp_a != pair.truth_fp_b ? "distinct" : "equal");
    std::printf("indistinguishable ground-truth pair: %s\n",
                pair.indistinguishable() ? "yes" : "NO");
    return pair.indistinguishable() ? 0 : 1;
  }

  sim::ThroughputModel model(*world.topo, *world.traffic);
  measure::Platform mlab("M-Lab", *world.topo, world.mlab_servers);
  gen::WorkloadConfig wl;
  wl.days = static_cast<int>(days);
  wl.mean_tests_per_client = args.get_double("tests-per-client", 8.0);
  util::Rng sched_rng(seed + 1);
  auto schedule = gen::crowdsourced_schedule(world, world.clients, wl,
                                             sched_rng);
  route::PathCache path_cache(fwd);
  auto run_once = [&](const sim::AdversaryScenario* adv) {
    measure::NdtCampaign campaign(world, fwd, model, mlab,
                                  measure::CampaignConfig{});
    campaign.set_path_cache(&path_cache);
    if (adv != nullptr) campaign.set_adversary(adv);
    util::Rng rng(seed + 2);
    return campaign.run(schedule, rng);
  };
  measure::CampaignResult baseline = run_once(nullptr);
  measure::CampaignResult perturbed = run_once(&scenario);

  measure::AdversaryCampaignTruth truth =
      measure::annotate_campaign(scenario, *world.topo, perturbed);
  util::TextTable scenario_table({"scenario knob", "value"});
  scenario_table.add_row({"scenario", scen});
  scenario_table.add_row({"epoch (hours)", util::format("%.1f", epoch)});
  scenario_table.add_row(
      {"pairs churned", util::format("%zu/%zu", truth.pairs_churned,
                                     truth.pairs_total)});
  scenario_table.add_row(
      {"withdrawn links", std::to_string(truth.withdrawn_links.size())});
  scenario_table.add_row(
      {"tests pre/post epoch",
       util::format("%zu/%zu", truth.tests_pre_epoch,
                    truth.tests_post_epoch)});
  std::printf("%s", scenario_table.render().c_str());

  bool prefix_equal =
      measure::fingerprint_before(baseline, scenario.epoch_hours()) ==
      measure::fingerprint_before(perturbed, scenario.epoch_hours());
  std::printf("pre-epoch prefix vs clean run: %s\n",
              prefix_equal ? "bit-identical" : "DIFFERS");

  infer::Ip2As ip2as(*world.topo);
  infer::AnomalyReport report = infer::detect_anomalies(perturbed, ip2as);
  core::AnomalyGroundTruth gt = core::ground_truth_of(truth);
  core::AnomalyScore score = core::score_anomalies(report, gt);

  util::TextTable det({"detector output", "value"});
  det.add_row({"bins", std::to_string(report.bins)});
  det.add_row({"alarms", std::to_string(report.alarms.size())});
  det.add_row({"withdrawn crossings flagged",
               std::to_string(report.withdrawn.size())});
  std::string epochs_text;
  for (double e : report.epochs) {
    epochs_text += util::format(epochs_text.empty() ? "%.0fh" : ", %.0fh", e);
  }
  det.add_row({"epoch candidates",
               epochs_text.empty() ? "(none)" : epochs_text});
  det.add_row({"epoch precision/recall",
               util::format("%.2f / %.2f", score.epoch_precision,
                            score.epoch_recall)});
  det.add_row({"withdrawn precision/recall",
               util::format("%.2f / %.2f", score.withdrawn_precision,
                            score.withdrawn_recall)});
  std::printf("%s", det.render().c_str());
  if (!truth.accounted(perturbed.tests.size())) {
    std::fprintf(stderr, "adversary ground-truth accounting inconsistent\n");
    return 1;
  }
  if (!prefix_equal && scenario.epoch_hours() > 0.0 && !asym) {
    return 1;
  }
  return 0;
}

// The subcommand registry: the one place a subcommand is declared. Both
// the usage text and main()'s dispatch are generated from this table.
struct Subcommand {
  const char* name;
  const char* summary;
  const char* options;  // subcommand-specific flags, for the usage text
  int (*fn)(const Args&);
};

constexpr Subcommand kSubcommands[] = {
    {"topology", "generate a world and summarize its topology", "", &cmd_topology},
    {"adversary", "run an adversarial campaign and score the anomaly detector",
     "--scenario churn|withdraw|asym|stars --fraction X --links N --epoch H "
     "--days N --tests-per-client X",
     &cmd_adversary},
    {"campaign", "run an NDT measurement campaign, optionally exporting datasets",
     "--days N --tests-per-client X --out DIR --no-truth", &cmd_campaign},
    {"coverage", "per-VP interdomain coverage analysis (bdrmap vs platforms)",
     "--vp SITE", &cmd_coverage},
    {"diurnal", "diurnal throughput profile for one transit/ISP pair",
     "--source NAME --isp NAME --days N", &cmd_diurnal},
    {"faults", "run clean vs faulted campaigns and report data quality",
     "--list | --severity X --days N --out DIR --no-truth", &cmd_faults},
    {"pathmodel", "CC-aware bottleneck classification on ground-truth sims",
     "--cc reno|cubic|bbr|all --scenario bandwidth|sender|interdomain|"
     "access|all --tests N --out FILE",
     &cmd_pathmodel},
    {"serve", "replay a campaign through the always-on ingest service",
     "--tests N --shards N --queue N --policy block|drop --rate X "
     "--snapshots N --listen PORT --connect HOST:PORT --wal-dir DIR "
     "--epoch N --retain N",
     &cmd_serve},
    {"stats", "run an instrumented campaign; print/export metrics and traces",
     "--days N --tests-per-client X --out DIR", &cmd_stats},
};

// Flags a subcommand accepts, derived from the same registry strings the
// usage text prints (every "--token" in sub.options) plus the options all
// subcommands share — so the usage text and the validator cannot drift.
std::set<std::string> allowed_flags(const Subcommand& sub) {
  std::set<std::string> flags = {"scale", "seed", "help"};
  for (const char* p = sub.options; *p != '\0'; ++p) {
    if (p[0] == '-' && p[1] == '-') {
      const char* start = p + 2;
      const char* end = start;
      while (*end != '\0' && *end != ' ') ++end;
      flags.emplace(start, end);
      p = end - 1;
    }
  }
  return flags;
}

int usage(std::FILE* to) {
  std::fprintf(to, "usage: netcong_cli <subcommand> [options]\n\n");
  std::fprintf(to, "subcommands:\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(to, "  %-9s %s\n", sub.name, sub.summary);
  }
  std::fprintf(to, "\ncommon options: --scale full|small|tiny  --seed N\n");
  for (const Subcommand& sub : kSubcommands) {
    if (sub.options[0] == '\0') continue;
    std::fprintf(to, "  %-9s %s\n", sub.name, sub.options);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (args.command == "help" || args.command == "--help") {
    usage(stdout);
    return 0;
  }
  if (args.command.empty()) return usage(stderr);
  for (const Subcommand& sub : kSubcommands) {
    if (args.command != sub.name) continue;
    if (!args.stray.empty()) {
      std::fprintf(stderr, "unexpected argument '%s'\n\n",
                   args.stray.front().c_str());
      usage(stderr);
      return 2;
    }
    const std::set<std::string> allowed = allowed_flags(sub);
    for (const auto& [key, value] : args.options) {
      if (allowed.count(key) == 0) {
        std::fprintf(stderr, "unknown option '--%s' for subcommand '%s'\n\n",
                     key.c_str(), sub.name);
        usage(stderr);
        return 2;
      }
    }
    if (args.has("help")) {
      usage(stdout);
      return 0;
    }
    return sub.fn(args);
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n\n", args.command.c_str());
  usage(stderr);
  return 2;
}
