#pragma once

// Measurement plumbing shared by the benchmark's workloads.
//
// A workload is driven as a closed loop: set-up runs several times (the
// last one's inputs are kept), then one operation at a time runs until the
// requested measuring time is used up. Each operation is timed for wall
// and CPU (getrusage delta); its output checks either all pass or the
// operation counts as failed.
//
// Layer spans are recorded with obs::Span around the benchmark's own calls
// into each module (gen, route, measure, infer, core, serve, sim/packet),
// next to the spans the library already records (campaign.*, mapit.run,
// bdrmap.run). Tracing is on only in a traced run; end-to-end numbers come
// from untraced operations.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace netcong::perfbench {

// The seed whose outputs are pinned (see Checks::pin): May 2015, the
// paper's primary measurement window.
inline constexpr std::uint64_t kDefaultSeed = 20150501;

enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  // kTiny shrinks every workload to a few seconds for the self-test.
  Scale scale = Scale::kFull;
  // Flips one pinned fingerprint, so the self-test can prove a mismatch is
  // counted as a failed operation.
  bool corrupt_pin = false;
  // Where traces, metric snapshots, per-run results and WAL segments go
  // (inside the checkout the benchmark runs from).
  std::string out_dir = ".bench_out";
};

const char* scale_name(Scale s);

// Steady-clock seconds since an arbitrary epoch.
double wall_seconds();
// User + system CPU seconds of this process so far.
double cpu_seconds();
// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

// Worker threads the benchmark lets a layer use: the hardware threads,
// capped at 4 so runs on larger machines stay comparable.
int worker_threads();

// Median of `v` (0 when empty).
double median(std::vector<double> v);
// Nearest-rank percentile p in [0, 1] of `v` (0 when empty).
double percentile(std::vector<double> v, double p);
// The highest whole percentile with at least ten samples above it, and its
// value; {0, median} when there are fewer than eleven samples.
std::pair<int, double> tail_percentile(std::vector<double> v);

// Output checks of one operation. A failed check marks the operation
// failed; the message goes to stderr.
class Checks {
 public:
  Checks(const Options& options, std::string workload_scale_key);

  void expect(bool ok, const std::string& what);

  // Compares a fingerprint with its pinned value when the run uses the
  // default seed (any seed for seedless workloads: pass always = true).
  // Every fingerprint is also printed so a reviewer can diff two runs.
  void pin(const std::string& name, std::uint64_t actual,
           bool always = false);

  // Compares a value with the one the same key produced earlier in this
  // run: operations over the same inputs must produce identical outputs.
  void repeat(const std::string& key, std::uint64_t actual);

  // Starts a new operation with no failed check.
  void begin_op() { op_ok_ = true; }
  bool op_ok() const { return op_ok_; }

 private:
  const Options& options_;
  std::string key_;
  bool op_ok_ = true;
  bool corrupted_ = false;
  std::map<std::string, std::uint64_t> seen_;
  std::set<std::string> printed_;
};

// Per-operation (or per-set-up) named values a workload records for the
// report: counts, CPU seconds, latency samples.
class Recorder {
 public:
  void add(const std::string& name, double value) {
    series_[name].push_back(value);
  }
  const std::vector<double>* find(const std::string& name) const;
  double median_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> series_;
};

// What one operation hands back to the loop.
struct OpResult {
  // Work units completed (tests, traceroutes, events, cases).
  double items = 0.0;
  // Wall seconds the throughput is taken over; 0 = the whole operation.
  double items_wall_s = 0.0;
};

// A workload-specific end-to-end readout (printed with its unit and kept
// in the per-run result file).
struct Readout {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  int tail_pct = 0;  // 0 = no tail percentile reported
  double tail_value = 0.0;
};

class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Name of the work unit behind items_per_s, e.g. "ndt_tests".
  virtual const char* items_name() const = 0;
  // Builds the inputs from the seed, replacing any earlier ones.
  virtual void setup() = 0;
  // One closed-loop operation.
  virtual OpResult run_op(Checks& checks) = 0;
  // Size parameters, for the provenance stamp.
  virtual std::vector<std::pair<std::string, std::string>> params() const = 0;
  // Workload-specific end-to-end readouts from the recorded values.
  virtual std::vector<Readout> readouts() const { return {}; }
  // Extra traced-run measurements taken once after the traced operations.
  virtual void traced_extras() {}
  // Ingest shards the workload actually used (0 = no ingest service).
  virtual int shards_used() const { return 0; }

  Recorder& rec() { return rec_; }
  const Recorder& rec() const { return rec_; }

 protected:
  const Options& options_;
  Recorder rec_;
};

// Per span name, summed over `events`: calls, wall, and self time (wall
// minus the part covered by spans nested inside it on the same thread).
struct LayerRow {
  std::string name;
  std::uint64_t calls = 0;
  double wall_s = 0.0;
  double self_s = 0.0;
};
std::vector<LayerRow> layer_table(std::vector<obs::TraceEvent> events);

// Shell-free mkdir -p; false when the directory cannot be created.
bool make_dirs(const std::string& path);
bool write_file(const std::string& path, const std::string& text);

}  // namespace netcong::perfbench
