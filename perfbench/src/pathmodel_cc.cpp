// pathmodel_cc: the packet-level path-model suite (sim/packet +
// infer/pathmodel) under each congestion control.
//
// Set-up: the NewReno suite's reference scores, which every operation's
// NewReno run must reproduce. Operation: run_pathmodel_suite for NewReno,
// Cubic and BBR (in a seed-rotated order) at a fixed instances-per-class
// count, each scored with score_pathmodel. The suite is seedless by
// construction (instance parameters derive from the index), so its outputs
// are pinned for every seed; the seed only rotates the CC order.

#include <string>
#include <vector>

#include "core/pathmodel_eval.h"
#include "measure/fingerprint.h"
#include "obs/trace.h"
#include "workloads.h"

namespace netcong::perfbench {

namespace {

namespace sp = sim::packet;

const char* suite_span(sp::CcAlgo cc) {
  switch (cc) {
    case sp::CcAlgo::kNewReno:
      return "core.pathmodel.suite_reno";
    case sp::CcAlgo::kCubic:
      return "core.pathmodel.suite_cubic";
    case sp::CcAlgo::kBbr:
      return "core.pathmodel.suite_bbr";
  }
  return "core.pathmodel.suite";
}

std::uint64_t score_digest(const std::vector<core::PathModelCase>& cases,
                           const core::PathModelScore& s) {
  measure::Fingerprint fp;
  for (const core::PathModelCase& c : cases) {
    fp.mix(static_cast<std::uint64_t>(c.result.label));
    fp.mix(static_cast<std::uint64_t>(c.result.site));
    fp.mix(c.goodput_mbps);
  }
  for (double v : {s.congested.precision, s.congested.recall, s.congested.f1,
                   s.baseline_best_threshold, s.baseline_best_f1,
                   s.label_accuracy, s.localization_accuracy}) {
    fp.mix(v);
  }
  return fp.value();
}

class PathmodelCc final : public Workload {
 public:
  using Workload::Workload;

  const char* items_name() const override { return "pathmodel_cases"; }

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"scenarios", core::pathmodel_scenario_name(scenarios())},
            {"per_class", std::to_string(kPerClass)},
            {"ccs", "reno,cubic,bbr"},
            {"threads", "1"}};
  }

  void setup() override {
    obs::Span span("core.pathmodel.reference");
    auto cases = core::run_pathmodel_suite(sp::CcAlgo::kNewReno, scenarios(),
                                           kPerClass);
    reference_ = score_digest(cases, core::score_pathmodel(cases));
  }

  OpResult run_op(Checks& checks) override {
    const sp::CcAlgo order[] = {sp::CcAlgo::kNewReno, sp::CcAlgo::kCubic,
                                sp::CcAlgo::kBbr};
    const std::size_t rotate = options_.seed % 3;
    const std::size_t classes = scenarios() == core::PathModelScenario::kAll
                                    ? 4
                                    : 1;
    double cases_run = 0.0;
    for (std::size_t k = 0; k < 3; ++k) {
      const sp::CcAlgo cc = order[(k + rotate) % 3];
      const std::string name = sp::cc_algo_name(cc);
      std::vector<core::PathModelCase> cases;
      {
        obs::Span span(suite_span(cc));
        cases = core::run_pathmodel_suite(cc, scenarios(), kPerClass);
      }
      core::PathModelScore score;
      {
        obs::Span span("core.pathmodel.score");
        score = core::score_pathmodel(cases);
      }
      cases_run += static_cast<double>(cases.size());
      const core::BinaryScore& b = score.congested;
      checks.expect(cases.size() == classes * kPerClass,
                    name + ": one case per instance and class");
      checks.expect(static_cast<std::size_t>(b.tp + b.fp + b.fn + b.tn) ==
                        cases.size(),
                    name + ": the confusion matrix counts every case");
      const std::uint64_t digest = score_digest(cases, score);
      if (cc == sp::CcAlgo::kNewReno) {
        checks.expect(digest == reference_,
                      "reno suite reproduces the set-up reference");
      }
      checks.repeat(name, digest);
      checks.pin(name, digest, /*always=*/true);
    }
    return {cases_run, 0.0};
  }

 private:
  static constexpr int kPerClass = 1;

  // The tiny self-test scale runs one scenario class.
  core::PathModelScenario scenarios() const {
    return options_.scale == Scale::kTiny ? core::PathModelScenario::kBandwidth
                                          : core::PathModelScenario::kAll;
  }

  std::uint64_t reference_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_pathmodel_cc(const Options& options) {
  return std::make_unique<PathmodelCc>(options);
}

}  // namespace netcong::perfbench
