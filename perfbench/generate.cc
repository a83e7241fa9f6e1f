// Input generator of the end-to-end benchmark: writes one workload's input
// as an exchange CSV (the WriteDatasetCsv format) from a seed. It runs as
// its own process, so the measured program's set-up time and peak memory
// are its own ingest of this file, never the generator's.
//
// The trips are part of the workload: the city, its road network and every
// trajectory come from a fixed seed. The run's seed draws each traveller's
// personal (k, delta), so two seeds give two inputs that differ in the
// privacy requirements the paper personalizes, on the same geometry.
//
// Usage: perfbench_gen --workload=NAME --seed=N --out=FILE

#include <cstdio>
#include <string>

#include "common/arg_parser.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "traj/io.h"
#include "workloads.h"

using namespace wcop;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const perfbench::Workload* workload =
      perfbench::FindWorkload(args.GetString("workload", ""));
  const std::string out = args.GetString("out", "");
  if (workload == nullptr || out.empty() || !args.Has("seed")) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload=NAME --seed=N --out=FILE\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 0));

  SyntheticOptions gen;
  gen.seed = perfbench::kCitySeed;
  gen.num_trajectories = workload->trajectories;
  gen.num_users = workload->trajectories / 3 + 1;
  gen.points_per_trajectory = workload->points;
  gen.sampling_interval = workload->sampling_interval;
  gen.dataset_duration_days = workload->span_days;
  gen.outlier_fraction = perfbench::kOutlierFraction;
  Result<Dataset> dataset = GenerateSyntheticGeoLife(gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  Rng rng(MixSeed(seed, 1));
  AssignUniformRequirements(&*dataset, perfbench::kMinK, perfbench::kMaxK,
                            perfbench::kMinDelta, perfbench::kMaxDelta, &rng);

  // Write-then-rename, so an interrupted run never leaves a partial input
  // that a later run would take for a finished one.
  const std::string tmp = out + ".tmp";
  if (Status s = WriteDatasetCsv(*dataset, tmp); !s.ok()) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 1;
  }
  if (std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::perror("generate: rename");
    return 1;
  }
  std::printf("%s seed %llu: %zu trajectories, %zu points\n", workload->name,
              static_cast<unsigned long long>(seed), dataset->size(),
              dataset->TotalPoints());
  return 0;
}
