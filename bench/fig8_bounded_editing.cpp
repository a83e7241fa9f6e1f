// Reproduces Figure 8: WCOP-B total distortion as the edit size grows, for
// datasets of whole trajectories (WCOP-CT input) and of sub-trajectories
// (WCOP-SA Traclus / Convoys inputs), under two requirement regimes:
//   (a) medium demand:  k_max = 25,  delta_max = 500
//   (b) high demand:    k_max = 100, delta_max = 1400
//
// Expected shape (Section 6.5): distortion is non-monotone in edit size —
// editing relaxes clustering pressure but each edited trajectory pays a DE
// penalty proportional to its edit cost, so an 'optimal' edit size exists.
//
// Run:  ./fig8_bounded_editing [--points=100] [--max-edit=14] [--step=2]
//                              [--json-out=FILE]

#include <cstdio>
#include <iostream>
#include <vector>

#include "anon/wcop.h"
#include "bench_util.h"
#include "common/table_printer.h"

using namespace wcop;
using namespace wcop::bench;

namespace {

struct Series {
  std::string name;
  std::vector<WcopBRound> rounds;
  double unedited = 0.0;  // edit size 0 baseline (plain WCOP-CT)
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchScale scale = BenchScale::FromArgs(args);
  if (!args.Has("points")) {
    scale.points = 100;  // WCOP-B re-anonymizes once per round: keep modest
  }
  const size_t max_edit = static_cast<size_t>(args.GetInt("max-edit", 14));
  const size_t step = static_cast<size_t>(args.GetInt("step", 2));
  JsonOut json_out(args);
  const Dataset base = MakeBenchDataset(scale);

  TraclusSegmenter traclus(BenchTraclusOptions());
  ConvoySegmenter convoys(BenchConvoyOptions());
  Result<Dataset> by_traclus = traclus.Segment(base);
  Result<Dataset> by_convoys = convoys.Segment(base);
  if (!by_traclus.ok() || !by_convoys.ok()) {
    std::cerr << "segmentation failed\n";
    return 1;
  }

  struct Regime {
    const char* title;
    int k_max;
    double delta_max;
  };
  const Regime regimes[] = {
      {"Figure 8(a): distortion vs edit size (kmax=25, dmax=500)", 25, 500.0},
      {"Figure 8(b): distortion vs edit size (kmax=100, dmax=1400)", 100,
       1400.0},
  };

  ShapeChecks checks;
  for (const Regime& regime : regimes) {
    // Assign the regime's requirements to parents, propagate to children.
    Dataset parents = base;
    AssignPaperRequirements(&parents, regime.k_max, regime.delta_max,
                            scale.seed + 500 + regime.k_max);
    auto propagate = [&](Dataset segmented) {
      for (Trajectory& sub : segmented.mutable_trajectories()) {
        const Trajectory* parent = parents.FindById(sub.parent_id());
        if (parent != nullptr) {
          sub.set_requirement(parent->requirement());
        }
      }
      return segmented;
    };

    std::vector<std::pair<std::string, Dataset>> inputs;
    inputs.emplace_back("WCOP-CT", parents);
    inputs.emplace_back("WCOP-SA Traclus", propagate(*by_traclus));
    inputs.emplace_back("WCOP-SA Convoys", propagate(*by_convoys));

    std::vector<Series> series;
    for (auto& [name, dataset] : inputs) {
      WcopOptions options;
      options.seed = scale.seed + 2;
      telemetry::Telemetry tel;
      options.telemetry = &tel;
      Result<AnonymizationResult> unedited = RunWcopCt(dataset, options);
      if (!unedited.ok()) {
        std::cerr << name << " unedited run failed: " << unedited.status()
                  << "\n";
        return 1;
      }
      WcopBOptions b_options;
      b_options.distort_max = 0.0;  // force the full sweep
      b_options.step = step;
      b_options.max_edit_size = max_edit;
      Result<WcopBResult> swept = RunWcopB(dataset, options, b_options);
      if (!swept.ok()) {
        std::cerr << name << " WCOP-B sweep failed: " << swept.status()
                  << "\n";
        return 1;
      }
      // One timed record per full sweep, plus an untimed data point per
      // editing round (the Figure 8 curve itself).
      const std::string json_name =
          name == "WCOP-CT" ? "fig8/wcop_ct"
          : name == "WCOP-SA Traclus" ? "fig8/sa_traclus"
                                      : "fig8/sa_convoys";
      json_out.Add(json_name + "/sweep",
                   {{"points", static_cast<double>(scale.points)},
                    {"kmax", static_cast<double>(regime.k_max)},
                    {"dmax", regime.delta_max},
                    {"max_edit", static_cast<double>(max_edit)},
                    {"step", static_cast<double>(step)},
                    {"unedited_distortion",
                     unedited->report.total_distortion}},
                   swept->anonymization.report.runtime_seconds,
                   swept->anonymization.report.metrics);
      for (const WcopBRound& round : swept->rounds) {
        json_out.Add(json_name + "/round",
                     {{"kmax", static_cast<double>(regime.k_max)},
                      {"dmax", regime.delta_max},
                      {"edit_size", static_cast<double>(round.edit_size)},
                      {"total_distortion", round.total_distortion},
                      {"editing_distortion", round.editing_distortion},
                      {"ttd", round.ttd},
                      {"clusters",
                       static_cast<double>(round.num_clusters)},
                      {"trashed", static_cast<double>(round.trashed)}},
                     0.0, {});
      }
      Series s;
      s.name = name;
      s.unedited = unedited->report.total_distortion;
      s.rounds = swept->rounds;
      series.push_back(std::move(s));
    }

    PrintHeader(regime.title);
    std::vector<std::string> header = {"edit size"};
    for (const Series& s : series) {
      header.push_back(s.name);
    }
    TablePrinter table(header);
    std::vector<std::string> zero_row = {"0"};
    for (const Series& s : series) {
      zero_row.push_back(FormatSignificant(s.unedited, 4));
    }
    table.AddRow(zero_row);
    for (size_t round = 0; round < series[0].rounds.size(); ++round) {
      std::vector<std::string> row = {
          std::to_string(series[0].rounds[round].edit_size)};
      for (const Series& s : series) {
        row.push_back(round < s.rounds.size()
                          ? FormatSignificant(
                                s.rounds[round].total_distortion, 4)
                          : "-");
      }
      table.AddRow(row);
    }
    table.Print(std::cout);

    // Shape checks per Section 6.5: (i) editing reduces distortion below
    // the unedited run for at least one pipeline (the paper reports ~10%
    // gains around edit size 5 for most approaches); (ii) distortion is
    // non-monotone in edit size (each edit also pays a DE penalty), so an
    // 'optimal' edit size exists rather than more-is-better.
    bool any_improves = false;
    bool any_non_monotone = false;
    for (const Series& s : series) {
      double best = s.unedited;
      bool rose = false, fell = false;
      double prev = s.unedited;
      for (const WcopBRound& round : s.rounds) {
        best = std::min(best, round.total_distortion);
        rose |= round.total_distortion > prev * (1.0 + 1e-6);
        fell |= round.total_distortion < prev * (1.0 - 1e-6);
        prev = round.total_distortion;
      }
      any_improves |= best < s.unedited * (1.0 - 1e-6);
      any_non_monotone |= rose && fell;
    }
    std::printf("shape checks vs paper: [%s] editing lowers some pipeline's "
                "distortion; [%s] distortion non-monotone in edit size\n",
                checks.Tag(any_improves), checks.Tag(any_non_monotone));
  }
  if (!json_out.Flush()) {
    return 1;
  }
  return checks.ExitCode();
}
