// Reproduces Table 3: base comparison of WCOP-NV, WCOP-CT, WCOP-SA
// (Traclus and Convoys variants) and WCOP-B on the same dataset with the
// same parameters (k_max = 5, delta_max = 250).
//
// Absolute numbers differ from the paper (synthetic data, reduced point
// density); the comparison *shape* is the reproduction target: NV worst on
// distortion/discernibility, CT better, SA-Traclus many more
// sub-trajectories/clusters with the lowest distortion, WCOP-B trimming
// CT's distortion by editing a handful of demanding trajectories.
//
// Run:  ./table3_base_comparison [--points=120] [--full]
//       [--json-out=table3.json]   one metrics record per algorithm
//       [--trace-out=trace.json]   Chrome trace of the WCOP-CT run

#include <cstdio>
#include <iostream>
#include <vector>

#include "anon/wcop.h"
#include "bench_util.h"
#include "common/table_printer.h"

using namespace wcop;
using namespace wcop::bench;

namespace {

struct NamedReport {
  std::string name;
  AnonymizationReport report;
};

std::string Fmt(double v) { return FormatSignificant(v, 4); }

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const BenchScale scale = BenchScale::FromArgs(args);
  const int k_max = static_cast<int>(args.GetInt("kmax", 5));
  const double delta_max = args.GetDouble("dmax", 250.0);
  Dataset dataset = MakeBenchDataset(scale);
  AssignPaperRequirements(&dataset, k_max, delta_max, scale.seed + 1);

  WcopOptions options;
  options.seed = scale.seed + 2;
  options.threads = scale.threads;

  JsonOut json_out(args);
  const std::string trace_out = args.GetString("trace-out", "");
  const std::vector<std::pair<std::string, double>> config = {
      {"points", static_cast<double>(scale.points)},
      {"trajectories", static_cast<double>(scale.trajectories)},
      {"kmax", static_cast<double>(k_max)},
      {"dmax", delta_max},
  };

  std::vector<NamedReport> reports;

  {
    // Each algorithm runs with its own telemetry sink so the per-bench
    // metrics records are independent, not cumulative.
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    Result<AnonymizationResult> r = RunWcopNv(dataset, options);
    if (!r.ok()) {
      std::cerr << "WCOP-NV failed: " << r.status() << "\n";
      return 1;
    }
    json_out.Add("table3/WCOP-NV", config, r->report.runtime_seconds,
                 r->report.metrics);
    reports.push_back({"WCOP-NV", r->report});
  }
  {
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    Result<AnonymizationResult> r = RunWcopCt(dataset, options);
    if (!r.ok()) {
      std::cerr << "WCOP-CT failed: " << r.status() << "\n";
      return 1;
    }
    if (!trace_out.empty()) {
      Status s = tel.WriteChromeTrace(trace_out);
      if (!s.ok()) {
        std::cerr << "trace export failed: " << s << "\n";
        return 1;
      }
      std::printf("wrote Chrome trace of the WCOP-CT run to %s\n",
                  trace_out.c_str());
    }
    json_out.Add("table3/WCOP-CT", config, r->report.runtime_seconds,
                 r->report.metrics);
    reports.push_back({"WCOP-CT", r->report});
  }
  {
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    TraclusOptions traclus_options = BenchTraclusOptions();
    traclus_options.telemetry = &tel;
    TraclusSegmenter segmenter(traclus_options);
    Result<WcopSaResult> r = RunWcopSa(dataset, &segmenter, options);
    if (!r.ok()) {
      std::cerr << "WCOP-SA Traclus failed: " << r.status() << "\n";
      return 1;
    }
    json_out.Add("table3/WCOP-SA-Traclus", config,
                 r->anonymization.report.runtime_seconds,
                 r->anonymization.report.metrics);
    reports.push_back({"WCOP-SA Traclus", r->anonymization.report});
  }
  {
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    ConvoyOptions convoy_options = BenchConvoyOptions();
    convoy_options.telemetry = &tel;
    ConvoySegmenter segmenter(convoy_options);
    Result<WcopSaResult> r = RunWcopSa(dataset, &segmenter, options);
    if (!r.ok()) {
      std::cerr << "WCOP-SA Convoys failed: " << r.status() << "\n";
      return 1;
    }
    json_out.Add("table3/WCOP-SA-Convoys", config,
                 r->anonymization.report.runtime_seconds,
                 r->anonymization.report.metrics);
    reports.push_back({"WCOP-SA Convoys", r->anonymization.report});
  }
  {
    // WCOP-B: as in the paper's Table 3 run, edit step 1, with a bound that
    // asks for ~20% less distortion than plain CT achieved. When the bound
    // is unreachable, report the best round of the sweep (the operating
    // point an analyst would pick).
    WcopBOptions b_options;
    b_options.distort_max = reports[1].report.total_distortion * 0.8;
    b_options.step = 1;
    b_options.max_edit_size = 16;
    telemetry::Telemetry sweep_tel;
    options.telemetry = &sweep_tel;
    Result<WcopBResult> swept = RunWcopB(dataset, options, b_options);
    if (!swept.ok()) {
      std::cerr << "WCOP-B failed: " << swept.status() << "\n";
      return 1;
    }
    size_t best_edit = swept->final_edit_size;
    double best_total = swept->anonymization.report.total_distortion;
    for (const WcopBRound& round : swept->rounds) {
      if (round.total_distortion < best_total) {
        best_total = round.total_distortion;
        best_edit = round.edit_size;
      }
    }
    std::printf("WCOP-B: bound %s; best sweep point edits the %zu most "
                "demanding trajectories\n",
                swept->bound_satisfied ? "met" : "not reachable in sweep",
                best_edit);
    // Re-run to the best operating point so the reported row is the full,
    // consistent report of that round (runs are seed-deterministic).
    b_options.distort_max = best_total * (1.0 + 1e-9);
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    Result<WcopBResult> best = RunWcopB(dataset, options, b_options);
    if (!best.ok()) {
      std::cerr << "WCOP-B failed: " << best.status() << "\n";
      return 1;
    }
    json_out.Add("table3/WCOP-B", config,
                 best->anonymization.report.runtime_seconds,
                 best->anonymization.report.metrics);
    reports.push_back({"WCOP-B", best->anonymization.report});
  }
  options.telemetry = nullptr;

  PrintHeader(
      "Table 3: base comparison (k_max=5, delta_max=250, same dataset)");
  std::vector<std::string> header = {"statistic"};
  for (const NamedReport& nr : reports) {
    header.push_back(nr.name);
  }
  TablePrinter table(header);
  auto row = [&](const std::string& name,
                 auto getter) {
    std::vector<std::string> cells = {name};
    for (const NamedReport& nr : reports) {
      cells.push_back(getter(nr.report));
    }
    table.AddRow(cells);
  };
  row("# (sub-)trajectories", [](const AnonymizationReport& r) {
    return std::to_string(r.input_trajectories);
  });
  row("# clusters", [](const AnonymizationReport& r) {
    return std::to_string(r.num_clusters);
  });
  row("# trajectories moved to trash", [](const AnonymizationReport& r) {
    return std::to_string(r.trashed_trajectories);
  });
  row("# points moved to trash", [](const AnonymizationReport& r) {
    return std::to_string(r.trashed_points);
  });
  row("discernibility", [](const AnonymizationReport& r) {
    return Fmt(r.discernibility);
  });
  row("# created points", [](const AnonymizationReport& r) {
    return std::to_string(r.created_points);
  });
  row("# deleted points", [](const AnonymizationReport& r) {
    return std::to_string(r.deleted_points);
  });
  row("avg spatial translation", [](const AnonymizationReport& r) {
    return Fmt(r.avg_spatial_translation);
  });
  row("avg temporal translation", [](const AnonymizationReport& r) {
    return Fmt(r.avg_temporal_translation);
  });
  row("total distortion", [](const AnonymizationReport& r) {
    return Fmt(r.total_distortion);
  });
  row("runtime (seconds)", [](const AnonymizationReport& r) {
    return Fmt(r.runtime_seconds);
  });
  table.Print(std::cout);

  // Shape assertions the paper's Table 3 supports; any mismatch fails.
  const auto& nv = reports[0].report;
  const auto& ct = reports[1].report;
  const auto& sa_traclus = reports[2].report;
  const auto& b = reports[4].report;
  ShapeChecks checks;
  std::printf("\nshape checks vs paper:\n");
  std::printf("  [%s] WCOP-CT distortion < WCOP-NV\n",
              checks.Tag(ct.total_distortion < nv.total_distortion));
  std::printf("  [%s] WCOP-CT creates more clusters than WCOP-NV\n",
              checks.Tag(ct.num_clusters > nv.num_clusters));
  std::printf("  [%s] SA-Traclus has the most input units and clusters\n",
              checks.Tag(sa_traclus.input_trajectories >
                             ct.input_trajectories &&
                         sa_traclus.num_clusters > ct.num_clusters));
  std::printf("  [%s] SA-Traclus achieves the lowest total distortion\n",
              checks.Tag(sa_traclus.total_distortion <= ct.total_distortion));
  std::printf("  [%s] WCOP-B distortion <= WCOP-CT\n",
              checks.Tag(b.total_distortion <= ct.total_distortion));
  if (!json_out.Flush()) {
    return 1;
  }
  return checks.ExitCode();
}
