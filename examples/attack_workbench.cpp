// Adversary workbench: how strong must an attacker be to re-identify users
// in the published dataset? Sweeps the three adversary knobs of the attack
// model — number of observations, observation noise, and location
// uncertainty (Definition 1 possible-motion-curve observations) — against
// both the raw data and its WCOP-CT anonymization.
//
// Run:  ./attack_workbench [--trajectories=60] [--kmax=5]

#include <cstdio>
#include <iostream>

#include "anon/wcop.h"
#include "attack/candidate_source.h"
#include "attack/reident.h"
#include "common/arg_parser.h"
#include "common/table_printer.h"
#include "data/synthetic.h"

using namespace wcop;

namespace {

/// Returns whether the row could be computed; a failed attack run is
/// reported on stderr instead of silently dropping the row.
bool SweepRow(TablePrinter* table, const std::string& label,
              const Dataset& original, const Dataset& raw,
              const Dataset& anonymized,
              const attack::ReidentOptions& options) {
  const attack::DatasetCandidateSource original_source(original);
  const attack::DatasetCandidateSource raw_source(raw);
  const attack::DatasetCandidateSource anonymized_source(anonymized);
  Result<attack::ReidentResult> on_raw =
      attack::RunReidentAttack(original_source, raw_source, options);
  if (!on_raw.ok()) {
    std::cerr << "attack on raw data failed for row '" << label
              << "': " << on_raw.status() << "\n";
    return false;
  }
  Result<attack::ReidentResult> on_anon =
      attack::RunReidentAttack(original_source, anonymized_source, options);
  if (!on_anon.ok()) {
    std::cerr << "attack on anonymized data failed for row '" << label
              << "': " << on_anon.status() << "\n";
    return false;
  }
  table->AddRow({label, FormatSignificant(on_raw->top1_success, 3),
                 FormatSignificant(on_anon->top1_success, 3),
                 FormatSignificant(on_anon->mean_true_rank, 3)});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);

  SyntheticOptions gen;
  gen.seed = 19;
  gen.num_trajectories = static_cast<size_t>(args.GetInt("trajectories", 60));
  gen.num_users = gen.num_trajectories / 3 + 1;
  gen.points_per_trajectory = 80;
  gen.region_half_diagonal = 15000.0;
  gen.dataset_duration_days = 30.0;
  Result<Dataset> maybe_dataset = GenerateSyntheticGeoLife(gen);
  if (!maybe_dataset.ok()) {
    std::cerr << maybe_dataset.status() << "\n";
    return 1;
  }
  Dataset dataset = std::move(maybe_dataset).value();
  Rng rng(3);
  AssignUniformRequirements(&dataset, 2,
                            static_cast<int>(args.GetInt("kmax", 5)), 50.0,
                            250.0, &rng);

  WcopOptions options;
  options.seed = 11;
  Result<AnonymizationResult> anonymized = RunWcopCt(dataset, options);
  if (!anonymized.ok()) {
    std::cerr << anonymized.status() << "\n";
    return 1;
  }
  std::printf("dataset: %zu trajectories; WCOP-CT produced %zu clusters\n\n",
              dataset.size(), anonymized->report.num_clusters);

  size_t rows_attempted = 0;
  size_t rows_ok = 0;
  {
    std::printf("adversary strength: number of observed (location, time) "
                "fixes\n");
    TablePrinter table({"observations", "top-1 on raw", "top-1 on anonymized",
                        "mean rank (anon)"});
    for (size_t obs : {1u, 2u, 5u, 10u, 25u}) {
      attack::ReidentOptions reident;
      reident.adversary.observations = obs;
      reident.adversary.seed = 100 + obs;
      ++rows_attempted;
      rows_ok += SweepRow(&table, std::to_string(obs), dataset, dataset,
                          anonymized->sanitized, reident);
    }
    table.Print(std::cout);
  }
  {
    std::printf("\nadversary quality: GPS noise on the observations "
                "(metres)\n");
    TablePrinter table({"noise (m)", "top-1 on raw", "top-1 on anonymized",
                        "mean rank (anon)"});
    for (double noise : {0.0, 25.0, 100.0, 400.0, 1600.0}) {
      attack::ReidentOptions reident;
      reident.adversary.noise = noise;
      reident.adversary.seed = 200 + static_cast<uint64_t>(noise);
      ++rows_attempted;
      rows_ok += SweepRow(&table, FormatSignificant(noise, 4), dataset,
                          dataset, anonymized->sanitized, reident);
    }
    table.Print(std::cout);
  }
  {
    std::printf("\nadversary knowledge model: observations from a possible "
                "motion curve of diameter delta (Definition 1)\n");
    TablePrinter table({"pmc delta (m)", "top-1 on raw",
                        "top-1 on anonymized", "mean rank (anon)"});
    for (double delta : {0.0, 50.0, 250.0, 1000.0, 4000.0}) {
      attack::ReidentOptions reident;
      reident.adversary.pmc_delta = delta;
      reident.adversary.seed = 300 + static_cast<uint64_t>(delta);
      ++rows_attempted;
      rows_ok += SweepRow(&table, FormatSignificant(delta, 4), dataset,
                          dataset, anonymized->sanitized, reident);
    }
    table.Print(std::cout);
  }

  std::printf("\ntakeaway: against raw data even one exact fix identifies "
              "most victims; the anonymized release holds linkage near the "
              "1/k floor until the adversary collects many precise fixes.\n");
  if (rows_ok == 0) {
    std::cerr << "all " << rows_attempted << " sweep rows failed\n";
    return 1;
  }
  if (rows_ok < rows_attempted) {
    std::cerr << (rows_attempted - rows_ok) << " of " << rows_attempted
              << " sweep rows failed (see above)\n";
  }
  return 0;
}
