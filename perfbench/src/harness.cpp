#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/trace.h"

namespace netcong::perfbench {

namespace {

// Fingerprints of the default seed's outputs, per "workload/scale". A
// change that alters any of them alters what the pipeline computes and must
// say why. Printed by every run as "fingerprint <name> <hex>".
struct PinnedValue {
  const char* key;
  const char* name;
  std::uint64_t value;
};

constexpr PinnedValue kPins[] = {
    {"ndt_month/full", "campaign", 0x4bf8df86e1e478a1ull},
    {"ndt_month/full", "mapit", 0x0726ea6b37027890ull},
    {"ndt_month/full", "congestion", 0xe1e484aaa57b08a1ull},
    {"ndt_month/tiny", "campaign", 0x7208fc55d8018896ull},
    {"ndt_month/tiny", "mapit", 0x4b75b7cdeb6cfba9ull},
    {"ndt_month/tiny", "congestion", 0x90adb4c50947cf42ull},
    {"ark_coverage/full", "first_vp.corpus", 0x0664b2982baf80deull},
    {"ark_coverage/full", "first_vp.bdrmap", 0xc45665a81c4c0aa3ull},
    {"ark_coverage/full", "first_vp.coverage", 0x74b5bd765472f111ull},
    {"ark_coverage/tiny", "first_vp.corpus", 0x3e5ea411dc114159ull},
    {"ark_coverage/tiny", "first_vp.bdrmap", 0x3be6489cd2029ae3ull},
    {"ark_coverage/tiny", "first_vp.coverage", 0x970d6f305fdab7dbull},
    {"ingest_replay/full", "event_log", 0x2c6154e5295e6331ull},
    {"ingest_replay/full", "snapshot", 0x44ad4272bd008d03ull},
    {"ingest_replay/tiny", "event_log", 0x21ddf4dc2ef4f365ull},
    {"ingest_replay/tiny", "snapshot", 0x8e5da751c6a22ff6ull},
    {"pathmodel_cc/full", "reno", 0x3e4c1770c3c4b893ull},
    {"pathmodel_cc/full", "cubic", 0x7afa54db375fc977ull},
    {"pathmodel_cc/full", "bbr", 0xa965c3d40992e34aull},
    {"pathmodel_cc/tiny", "reno", 0xa444e4e644ddc087ull},
    {"pathmodel_cc/tiny", "cubic", 0x06c5211c928e232bull},
    {"pathmodel_cc/tiny", "bbr", 0xd83592fe2dc12212ull},
};

}  // namespace

const char* scale_name(Scale s) { return s == Scale::kTiny ? "tiny" : "full"; }

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int worker_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::pair<int, double> tail_percentile(std::vector<double> v) {
  if (v.size() < 11) return {0, median(std::move(v))};
  const double n = static_cast<double>(v.size());
  // Highest p (whole percent) leaving at least ten samples above it.
  int p = static_cast<int>(std::floor(100.0 * (n - 10.0) / n));
  p = std::clamp(p, 50, 99);
  return {p, percentile(std::move(v), p / 100.0)};
}

Checks::Checks(const Options& options, std::string workload_scale_key)
    : options_(options), key_(std::move(workload_scale_key)) {}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  op_ok_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Checks::pin(const std::string& name, std::uint64_t actual, bool always) {
  if (printed_.insert(name).second) {
    std::printf("fingerprint %s %016llx\n", name.c_str(),
                static_cast<unsigned long long>(actual));
  }
  if (!always && options_.seed != kDefaultSeed) return;
  const PinnedValue* pinned = nullptr;
  for (const PinnedValue& p : kPins) {
    if (key_ == p.key && name == p.name) pinned = &p;
  }
  if (pinned == nullptr) {
    expect(false, "no pinned value for " + key_ + " " + name);
    return;
  }
  std::uint64_t expected = pinned->value;
  if (options_.corrupt_pin && !corrupted_) {
    corrupted_ = true;
    expected ^= 1;
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "fingerprint %s: %016llx, pinned %016llx",
                name.c_str(), static_cast<unsigned long long>(actual),
                static_cast<unsigned long long>(expected));
  expect(actual == expected, buf);
}

void Checks::repeat(const std::string& key, std::uint64_t actual) {
  auto [it, fresh] = seen_.emplace(key, actual);
  expect(fresh || it->second == actual,
         key + " differs between operations over the same inputs");
}

const std::vector<double>* Recorder::find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

double Recorder::median_of(const std::string& name) const {
  const std::vector<double>* v = find(name);
  return v == nullptr ? 0.0 : median(*v);
}

std::vector<LayerRow> layer_table(std::vector<obs::TraceEvent> events) {
  // Nesting is per thread: order each thread's spans by start, outermost
  // first, and walk them with a stack of open ancestors.
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  std::map<std::string, LayerRow> rows;
  struct Open {
    double end_us;
    LayerRow* row;
    double child_us = 0.0;
    double dur_us;
  };
  std::vector<Open> stack;
  auto close_until = [&](double ts_us) {
    while (!stack.empty() && stack.back().end_us <= ts_us) {
      Open& o = stack.back();
      o.row->self_s += (o.dur_us - o.child_us) / 1e6;
      stack.pop_back();
    }
  };
  std::uint32_t tid = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.tid != tid) {
      close_until(INFINITY);
      tid = ev.tid;
    }
    close_until(ev.ts_us);
    LayerRow& row = rows[ev.name];
    row.name = ev.name;
    row.calls += 1;
    row.wall_s += ev.dur_us / 1e6;
    if (!stack.empty()) stack.back().child_us += ev.dur_us;
    stack.push_back(Open{ev.ts_us + ev.dur_us, &row, 0.0, ev.dur_us});
  }
  close_until(INFINITY);
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace netcong::perfbench
