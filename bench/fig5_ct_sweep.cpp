// Reproduces Figure 5: WCOP-CT total distortion (a) and discernibility (b)
// for every combination of k_max in {5,10,25,50,100} and delta_max in
// {50,100,250,500,1000,1400}, with per-trajectory requirements drawn as
// k ~ U[2,k_max], delta ~ U[10,delta_max].
//
// Expected shape (Section 6.3): both metrics react to both parameters;
// distortion is *non-monotone* in k_max because large k inflates the trash,
// which triggers radius_max relaxation and more aggressive translation.
//
// Run:  ./fig5_ct_sweep [--points=120] [--json-out=fig5.json]

#include <cstdio>
#include <iostream>

#include "anon/wcop.h"
#include "bench_util.h"
#include "exp/grid_sweep.h"

using namespace wcop;
using namespace wcop::bench;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const BenchScale scale = BenchScale::FromArgs(args);
  const Dataset base = MakeBenchDataset(scale);
  JsonOut json_out(args);

  Result<GridSweepResult> sweep = RunGridSweep(
      PaperKValues(), PaperDeltaValues(),
      [&](const SweepCell& cell) -> Result<std::map<std::string, double>> {
        Dataset dataset = base;
        AssignPaperRequirements(&dataset, cell.k_max, cell.delta_max,
                                scale.seed + 100 + cell.k_index * 16 +
                                    cell.delta_index);
        WcopOptions options;
        options.seed = scale.seed + 2;
        options.threads = scale.threads;
        // Fresh sink per sweep cell: each json record stands alone.
        telemetry::Telemetry tel;
        options.telemetry = &tel;
        WCOP_ASSIGN_OR_RETURN(AnonymizationResult r,
                              RunWcopCt(dataset, options));
        json_out.Add("fig5/wcop_ct",
                     {{"points", static_cast<double>(scale.points)},
                      {"kmax", static_cast<double>(cell.k_max)},
                      {"dmax", cell.delta_max}},
                     r.report.runtime_seconds, r.report.metrics);
        return std::map<std::string, double>{
            {"distortion", r.report.total_distortion},
            {"discernibility", r.report.discernibility},
            {"trash", static_cast<double>(r.report.trashed_trajectories)},
        };
      });
  if (!sweep.ok()) {
    std::cerr << "sweep failed: " << sweep.status() << "\n";
    return 1;
  }

  PrintHeader("Figure 5(a): WCOP-CT total distortion");
  sweep->PrintTable("distortion", std::cout);
  PrintHeader("Figure 5(b): WCOP-CT discernibility");
  sweep->PrintTable("discernibility", std::cout);

  ShapeChecks checks;
  std::printf("\nshape check vs paper: [%s] distortion non-monotone in "
              "k_max for some delta_max series\n",
              checks.Tag(sweep->AnySeriesNonMonotone("distortion")));
  if (!json_out.Flush()) {
    return 1;
  }
  return checks.ExitCode();
}
