// Adversarial-campaign detection bench (EXPERIMENTS.md §7): runs the
// standard crowdsourced NDT campaign under sim/adversary scenarios — a
// churn-fraction sweep plus a peering-withdrawal run — and scores the
// infer/anomaly change detector against the scenario ground truth
// (core/anomaly_eval). The no-detection baseline (an empty report) scores
// zero whenever the ground truth is non-empty, so the gate is simply that
// the detector matches at least one true epoch at every churn fraction > 0
// and recovers at least one detectable withdrawn crossing; the binary exits
// nonzero when the gate fails.
//
//   NETCONG_ADVERSARY_DAYS=<n>  campaign length in days (default 7; the CI
//                               smoke test sets 2)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.h"
#include "core/anomaly_eval.h"
#include "infer/anomaly.h"
#include "measure/adversary.h"
#include "sim/adversary.h"

namespace {

int days_from_env() {
  const char* env = std::getenv("NETCONG_ADVERSARY_DAYS");
  if (env == nullptr) return 7;
  int n = std::atoi(env);
  return n > 0 ? n : 7;
}

}  // namespace

int main() {
  using namespace netcong;

  const int days = days_from_env();
  const double tests_per_client = 6.0;
  // Mid-campaign epoch: enough bins on both sides for the detector's
  // baseline window and for post-epoch evidence to accumulate.
  const double epoch = days * 12.0;

  gen::GeneratorConfig cfg = bench::bench_config();

  bench::print_header("§7", "anomaly detection vs adversarial ground truth");
  std::printf("  %d-day campaign, epoch at hour %.0f, %.0f tests/client\n\n",
              days, epoch, tests_per_client);

  bench::Context ctx(cfg);

  // One honest campaign per scenario seed keeps PathCache warm across the
  // sweep; adversarial keys carry their own salt/view bits so entries never
  // collide between runs.
  auto run_campaign = [&](const sim::AdversaryScenario* adversary,
                          std::uint64_t seed) {
    util::Rng rng(seed);
    gen::WorkloadConfig wl;
    wl.days = days;
    wl.mean_tests_per_client = tests_per_client;
    auto schedule =
        gen::crowdsourced_schedule(ctx.world, ctx.world.clients, wl, rng);
    measure::Platform mlab = ctx.mlab_platform();
    measure::NdtCampaign campaign(ctx.world, ctx.fwd, ctx.model, mlab, {});
    campaign.set_path_cache(&ctx.path_cache);
    if (adversary != nullptr) campaign.set_adversary(adversary);
    return campaign.run(schedule, rng);
  };

  std::printf(
      "  %-14s | %6s %6s | %9s %9s %7s | %8s | %s\n"
      "  ---------------+---------------+-----------------------------+"
      "----------+---------\n",
      "scenario", "pairs", "churn", "precision", "recall", "F1",
      "baseline", "epochs");

  bool detector_wins = true;

  // -- churn-fraction sweep ------------------------------------------------
  const std::vector<double> fractions = {0.0, 0.15, 0.3, 0.6};
  for (double fraction : fractions) {
    sim::AdversaryConfig acfg =
        fraction > 0.0 ? sim::AdversaryConfig::churn(epoch, fraction)
                       : sim::AdversaryConfig{};
    sim::AdversaryScenario scenario(*ctx.world.topo, ctx.bgp, acfg,
                                    cfg.seed ^ 0xad5ull);
    char label[32];
    std::snprintf(label, sizeof label, "churn_%d", int(fraction * 100 + 0.5));
    measure::CampaignResult result = run_campaign(&scenario, cfg.seed + 7);

    measure::AdversaryCampaignTruth truth =
        measure::annotate_campaign(scenario, *ctx.world.topo, result);
    core::AnomalyGroundTruth gt = core::ground_truth_of(truth);

    infer::AnomalyReport report = infer::detect_anomalies(result, ctx.ip2as);
    core::AnomalyScore score = core::score_anomalies(report, gt);
    core::AnomalyScore baseline = core::score_anomalies({}, gt);

    std::printf(
        "  %-14s | %6zu %6zu | %9.3f %9.3f %7.3f | %8.3f | %zu found, "
        "%zu true\n",
        label, truth.pairs_total, truth.pairs_churned,
        score.epoch_precision, score.epoch_recall, score.epoch_f1,
        baseline.epoch_f1, report.epochs.size(), gt.epochs.size());

    if (fraction > 0.0 && truth.pairs_churned > 0) {
      // The gate: the detector must beat the zero-scoring no-detection
      // baseline — i.e. match at least one true epoch.
      if (!(score.epoch_f1 > baseline.epoch_f1 && score.epochs_matched > 0)) {
        detector_wins = false;
        std::printf("    ^ GATE FAIL: no epoch matched at fraction %.2f\n",
                    fraction);
      }
    } else if (fraction == 0.0 && !report.epochs.empty()) {
      // Clean campaign: false alarms are reported but do not gate — the
      // CUSUM thresholds trade a small false-positive rate for onset lag.
      std::printf("    ^ note: %zu false epoch(s) on the clean campaign\n",
                  report.epochs.size());
    }
  }

  // -- peering withdrawal --------------------------------------------------
  {
    sim::AdversaryConfig acfg = sim::AdversaryConfig::withdrawal(epoch, 24);
    sim::AdversaryScenario scenario(*ctx.world.topo, ctx.bgp, acfg,
                                    cfg.seed ^ 0xad5ull);
    measure::CampaignResult result = run_campaign(&scenario, cfg.seed + 7);

    measure::AdversaryCampaignTruth truth =
        measure::annotate_campaign(scenario, *ctx.world.topo, result);
    // Score withdrawn recall against the detectable subset only: a link no
    // pre-epoch probe ever crossed leaves no absence to detect.
    auto detectable = measure::detectable_withdrawn(result, truth);
    core::AnomalyGroundTruth gt = core::ground_truth_of(truth);
    gt.withdrawn = detectable;

    infer::AnomalyReport report = infer::detect_anomalies(result, ctx.ip2as);
    core::AnomalyScore score = core::score_anomalies(report, gt);

    std::printf(
        "  %-14s | %6zu %6s | %9.3f %9.3f %7s | %8.3f | %zu/%zu links "
        "detectable\n",
        "withdraw_24", truth.pairs_total, "-", score.withdrawn_precision,
        score.withdrawn_recall, "-", 0.0, detectable.size(),
        truth.withdrawn_addrs.size());

    if (!detectable.empty() && score.withdrawn_matched == 0) {
      detector_wins = false;
      std::printf("    ^ GATE FAIL: no detectable withdrawn link flagged\n");
    }
  }

  bench::print_footnote(
      "gate: detector beats the no-detection baseline (>=1 matched epoch) at "
      "every churn fraction > 0, and flags >=1 detectable withdrawn link");
  if (!detector_wins) {
    std::printf("\n  RESULT: GATE FAILED\n");
    return 1;
  }
  std::printf("\n  RESULT: detector beats baseline everywhere\n");
  return 0;
}
