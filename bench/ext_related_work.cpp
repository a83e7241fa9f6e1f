// Extension experiment: every anonymization family of the paper's related-
// work section (Section 2), measured on one dataset with the same
// instruments —
//   * perturbation:    Path Perturbation (Hoh & Gruteser 2005)
//   * suppression:     Terrovitis & Mamoulis 2008 (place-grid variant)
//   * generalization:  AWO-style regions (Nergiz et al. 2008)
//   * clustering:      NWA (spatial), W4M / WCOP-NV (universal),
//                      WCOP-CT (personalized), Mahdavifar et al. 2012
// Instruments: linkage-attack success, tracking time-on-target, effective
// anonymity k^{tau,eps} (independent audit: tau = 30 min, eps = 250 m),
// range-query utility, density divergence.
//
// The dataset is co-temporalized (all departures at t=0) so the families
// that require temporal overlap (NWA, AWO, path perturbation) apply; the
// clustering families run on the same data for comparability.
//
// Run:  ./ext_related_work [--trajectories=120] [--kmax=5]

#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "anon/wcop.h"
#include "attack/candidate_source.h"
#include "attack/effective_k.h"
#include "attack/reident.h"
#include "attack/tracking.h"
#include "bench_util.h"
#include "common/table_printer.h"
#include "related/awo.h"
#include "related/path_perturbation.h"
#include "related/suppression.h"

using namespace wcop;
using namespace wcop::bench;

namespace {

Dataset CoTemporalize(Dataset d) {
  for (Trajectory& t : d.mutable_trajectories()) {
    const double t0 = t.StartTime();
    for (Point& p : t.mutable_points()) {
      p.t -= t0;
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchScale scale = BenchScale::FromArgs(args);
  if (!args.Has("trajectories")) {
    scale.trajectories = 120;  // many publishers; keep each affordable
  }
  const int k_max = static_cast<int>(args.GetInt("kmax", 5));

  Dataset dataset = CoTemporalize(MakeBenchDataset(scale));
  AssignPaperRequirements(&dataset, k_max, 250.0, scale.seed + 1);

  Rng query_rng(scale.seed + 7);
  const std::vector<RangeQuery> queries =
      GenerateRangeQueries(dataset, 50, 0.05, 0.02, &query_rng);
  const attack::DatasetCandidateSource original(dataset);
  attack::ReidentOptions reident;
  reident.adversary.seed = scale.seed + 8;

  attack::TrackingAttackOptions tracking;
  tracking.step_seconds = 60.0;
  tracking.seed = scale.seed + 9;

  attack::EffectiveKOptions effective_k;
  effective_k.adversary.tau_seconds = 1800.0;
  effective_k.adversary.epsilon = 250.0;

  PrintHeader("Extension: all related-work families on one dataset (kmax=" +
              std::to_string(k_max) + ")");
  TablePrinter table({"family / publisher", "link top-1", "time-on-target",
                      "eff. anonymity (mean)", "RQ rel. error",
                      "density div.", "published", "trashed"});

  auto evaluate = [&](const std::string& name, const Dataset& published,
                      size_t trashed) {
    const attack::DatasetCandidateSource published_source(published);
    Result<attack::ReidentResult> linkage =
        attack::RunReidentAttack(original, published_source, reident);
    Result<attack::TrackingAttackResult> tracked =
        attack::RunTrackingAttack(dataset, published, tracking);
    Result<attack::EffectiveKResult> anonymity =
        attack::MeasureEffectiveK(published_source, effective_k);
    const RangeQueryDistortionResult rq =
        RangeQueryDistortion(dataset, published, queries);
    const double density = SpatialDensityDivergence(dataset, published);
    table.AddRow(
        {name,
         linkage.ok() ? FormatSignificant(linkage->top1_success, 3) : "n/a",
         tracked.ok() ? FormatSignificant(tracked->mean_time_on_target, 3)
                      : "n/a",
         anonymity.ok() ? FormatSignificant(anonymity->mean_effective_k, 3)
                        : "n/a",
         FormatSignificant(rq.mean_relative_error, 3),
         FormatSignificant(density, 3), std::to_string(published.size()),
         std::to_string(trashed)});
  };

  evaluate("original (none)", dataset, 0);

  {
    PathPerturbationOptions options;
    options.radius = 250.0;
    Result<PathPerturbationResult> r = RunPathPerturbation(dataset, options);
    if (r.ok()) {
      evaluate("perturbation: Hoh-Gruteser", r->perturbed, 0);
    }
  }
  {
    SuppressionOptions options;
    options.cell_size = 2000.0;
    options.k = k_max;
    Result<SuppressionResult> r = RunSuppression(dataset, options);
    if (r.ok()) {
      evaluate("suppression: Terrovitis-Mamoulis", r->sanitized,
               r->trashed_ids.size());
    }
  }
  {
    AwoOptions options;
    options.k = k_max;
    options.trash_fraction = 0.25;
    Result<AwoResult> r = RunAwo(dataset, options);
    if (r.ok()) {
      evaluate("generalization: AWO (Nergiz et al.)", r->sanitized,
               r->trashed_ids.size());
    } else {
      std::printf("AWO skipped: %s\n", r.status().ToString().c_str());
    }
  }
  WcopOptions options;
  options.seed = scale.seed + 2;
  {
    Result<AnonymizationResult> r = RunNwa(dataset, k_max, 250.0, options);
    if (r.ok()) {
      evaluate("clustering: NWA (spatial)", r->sanitized,
               r->trashed_ids.size());
    } else {
      std::printf("NWA skipped: %s\n", r.status().ToString().c_str());
    }
  }
  {
    Result<AnonymizationResult> r = RunWcopNv(dataset, options);
    if (r.ok()) {
      evaluate("clustering: WCOP-NV / W4M (universal)", r->sanitized,
               r->trashed_ids.size());
    }
  }
  {
    Result<AnonymizationResult> r = RunWcopCt(dataset, options);
    if (r.ok()) {
      evaluate("clustering: WCOP-CT (personalized)", r->sanitized,
               r->trashed_ids.size());
    }
  }
  {
    Result<AnonymizationResult> r = RunMahdavifar(dataset);
    if (r.ok()) {
      evaluate("clustering: Mahdavifar et al. (personalized, no delta)",
               r->sanitized, r->trashed_ids.size());
    }
  }
  table.Print(std::cout);

  std::printf(
      "\nreading guide: each family defends against the adversary it was\n"
      "designed for. Perturbation targets the *tracking* adversary; in this\n"
      "dense co-temporal crowd even the raw data confuses a positional\n"
      "tracker (time-on-target <= 0.25 at the default 120 trajectories, raw\n"
      "data included) — the natural path confusion Hoh-Gruteser exploit; see\n"
      "the controlled two-lane case in tests/attack_test.cc for the isolated\n"
      "crossing effect. Under *point linkage*, perturbation and suppression\n"
      "leave users fully exposed (top-1 = 1.0, effective anonymity ~1.2);\n"
      "generalization unlinks identities at coarse spatial resolution; only\n"
      "the (k,delta) clustering family shows measured effective anonymity\n"
      ">= k, and personalization (WCOP-CT) provides it at the lowest utility\n"
      "cost.\n");
  return 0;
}
