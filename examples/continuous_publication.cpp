// Scenario: a fleet operator publishes anonymized movement data every hour
// rather than once at the end of the quarter — and the publisher has to
// survive being killed at any moment. This CLI drives the out-of-core
// continuous pipeline (pipeline/continuous.h) over a `.wst` trajectory
// store: each window is re-partitioned, anonymized through the sharded
// WCOP-CT runner, and published as an atomically-finished window store,
// committed by its record in the directory's append-only window journal.
//
// Run:  ./continuous_publication --output-dir=DIR
//         [--store=FILE.wst]            # default: generate synthetic data
//         [--trajectories=50] [--window=600] [--shards=2] [--max-windows=0]
//         [--verify] [--resume]
//
// Kill/resume quickstart (see README):
//   ./continuous_publication --output-dir=/tmp/pub &   # kill -9 it mid-run
//   ./continuous_publication --output-dir=/tmp/pub --resume
// The resumed run reads the journal once, verifies every already-published
// window against its record (CRC of the actual bytes), adopts the valid
// prefix, and recomputes only from the first torn window — converging to
// output byte-identical to an uninterrupted run.

#include <cstdio>
#include <iostream>
#include <string>

#include "common/arg_parser.h"
#include "common/log.h"
#include "common/table_printer.h"
#include "data/synthetic.h"
#include "pipeline/continuous.h"
#include "store/store_file.h"

using namespace wcop;

namespace {

/// Deterministic demo feed: synthesize a half-day of traffic and persist
/// it as the pipeline's source store. Same flags -> same bytes, so a
/// killed run and its resume read an identical source.
Status WriteSyntheticStore(const ArgParser& args, const std::string& path) {
  SyntheticOptions gen;
  gen.seed = 23;
  gen.num_trajectories = static_cast<size_t>(args.GetInt("trajectories", 50));
  gen.num_users = gen.num_trajectories / 3 + 1;
  gen.points_per_trajectory = 90;
  gen.sampling_interval = 20.0;
  gen.region_half_diagonal = 15000.0;
  gen.dataset_duration_days = 0.5;
  WCOP_ASSIGN_OR_RETURN(Dataset dataset, GenerateSyntheticGeoLife(gen));
  Rng rng(9);
  AssignUniformRequirements(&dataset, 2, 4, 50.0, 300.0, &rng);
  return store::WriteDatasetStore(dataset, path);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.Has("help") || !args.Has("output-dir")) {
    std::puts(
        "continuous_publication --output-dir=DIR [--store=FILE.wst]\n"
        "  [--trajectories=50] [--window=600] [--shards=2]\n"
        "  [--max-windows=0] [--verify] [--resume]\n"
        "  [--log-level=info] [--log-format=text|json]");
    return args.Has("help") ? 0 : 1;
  }
  if (!log::ConfigureFromArgs(args, "continuous_publication")) {
    return 1;
  }
  const std::string output_dir = args.GetString("output-dir", "");

  std::string store_path = args.GetString("store", "");
  if (store_path.empty()) {
    store_path = output_dir + ".source.wst";
    if (Status s = WriteSyntheticStore(args, store_path); !s.ok()) {
      log::Error("synthetic store generation failed",
                 {{"status", s.ToString()}});
      return 1;
    }
    std::printf("source store: %s (synthetic)\n", store_path.c_str());
  }

  pipeline::ContinuousPipelineOptions options;
  options.source_store = store_path;
  options.output_dir = output_dir;
  options.window_seconds = args.GetDouble("window", 600.0);
  options.max_windows = static_cast<size_t>(args.GetInt("max-windows", 0));
  options.resume = args.GetBool("resume", false);
  options.verify_shards = args.GetBool("verify", false);
  options.wcop.seed = 31;
  options.partition.num_shards =
      static_cast<size_t>(args.GetInt("shards", 2));
  RetryPolicy publish_retry;  // ride out transient I/O on publish
  options.publish_retry = &publish_retry;
  options.progress = [](const pipeline::PipelineProgress& p) {
    std::printf("[window %zu/%zu] published %llu, suppressed %llu, "
                "carried %llu (%.2fs)\n",
                p.windows_done, p.windows_total,
                static_cast<unsigned long long>(p.published_fragments),
                static_cast<unsigned long long>(p.suppressed_fragments),
                static_cast<unsigned long long>(p.carried),
                p.last_window_seconds);
    std::fflush(stdout);
  };

  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  if (!result.ok()) {
    log::Error("pipeline failed", {{"status", result.status().ToString()}});
    if (result.status().code() == StatusCode::kFailedPrecondition) {
      std::fprintf(stderr,
                   "hint: %s already holds published windows; "
                   "pass --resume to continue them\n",
                   output_dir.c_str());
    }
    return 1;
  }

  if (result->resumed_windows > 0) {
    std::printf("\nresumed: %zu window(s) verified and adopted from %s\n",
                result->resumed_windows, output_dir.c_str());
  }
  std::printf("\nwindows of %.0f s:\n\n", options.window_seconds);
  TablePrinter table({"window start", "in", "published", "carried",
                      "clusters", "TTD"});
  size_t shown = 0;
  for (const pipeline::WindowManifest& w : result->windows) {
    if (++shown > 12) {
      table.AddRow({"...", "", "", "", "", ""});
      break;
    }
    table.AddRow({FormatSignificant(w.window_start, 6),
                  std::to_string(w.input_fragments),
                  w.skipped ? "suppressed"
                            : std::to_string(w.published_fragments),
                  std::to_string(w.carried_out), std::to_string(w.clusters),
                  FormatSignificant(w.ttd, 4)});
  }
  table.Print(std::cout);

  std::printf("\npublished %llu fragments over %zu windows "
              "(%llu suppressed, total TTD %.4g)%s\n",
              static_cast<unsigned long long>(result->published_fragments),
              result->windows.size(),
              static_cast<unsigned long long>(result->suppressed_fragments),
              result->total_ttd, result->degraded ? " [degraded]" : "");
  std::printf("output: %s/window_*.wst + window_journal.jnl\n",
              output_dir.c_str());
  return 0;
}
