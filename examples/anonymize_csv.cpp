// Command-line anonymization tool — the "downstream user" entry point.
//
// Reads a trajectory dataset from CSV (or loads a GeoLife directory, or
// generates a synthetic one), anonymizes it with a chosen WCOP algorithm,
// audits the output, and writes the sanitized dataset plus the original for
// side-by-side plotting (Figures 3-4 of the paper are exactly such plots).
//
// Usage:
//   ./anonymize_csv --in=data.csv --algo=ct --out=anon.csv
//   ./anonymize_csv --geolife=/data/Geolife/Data --algo=sa-traclus
//   ./anonymize_csv --synthetic --trajectories=100 --algo=b --budget=0.8
//
// Algorithms: nv | ct | sa-traclus | sa-convoys | b

#include <cstdio>
#include <iostream>
#include <string>

#include "anon/report_json.h"
#include "anon/wcop.h"
#include "common/arg_parser.h"
#include "common/log.h"
#include "common/run_context.h"
#include "common/signals.h"
#include "common/telemetry.h"
#include "data/geolife_parser.h"
#include "data/store_convert.h"
#include "data/synthetic.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "segment/convoy.h"
#include "segment/traclus.h"
#include "traj/geojson.h"
#include "traj/io.h"
#include "traj/resample.h"
#include "traj/simplify.h"

using namespace wcop;

namespace {

Result<Dataset> LoadInput(const ArgParser& args) {
  if (args.Has("in")) {
    return ReadDatasetCsv(args.GetString("in", ""));
  }
  if (args.Has("store-in")) {
    WCOP_ASSIGN_OR_RETURN(
        store::TrajectoryStoreReader reader,
        store::TrajectoryStoreReader::Open(args.GetString("store-in", "")));
    return reader.ReadAll();
  }
  if (args.Has("geolife")) {
    GeoLifeOptions options;
    options.max_trajectories =
        static_cast<size_t>(args.GetInt("max-trajectories", 238));
    return LoadGeoLifeDirectory(args.GetString("geolife", ""), options);
  }
  const SyntheticOptions gen = SyntheticOptions::CommandLine(
      static_cast<uint64_t>(args.GetInt("seed", 7)),
      static_cast<size_t>(args.GetInt("trajectories", 100)),
      static_cast<size_t>(args.GetInt("points", 100)));
  // --synthetic-tiles=N lays out N independent cities far apart — the input
  // shape that gives a multi-shard run genuinely separable components.
  const size_t tiles =
      static_cast<size_t>(args.GetInt("synthetic-tiles", 1));
  if (tiles > 1) {
    return GenerateTiledSyntheticGeoLife(
        gen, tiles, args.GetDouble("tile-spacing", 200000.0));
  }
  return GenerateSyntheticGeoLife(gen);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.Has("help")) {
    std::puts(
        "anonymize_csv --in=FILE.csv | --store-in=FILE.wst | --geolife=DIR |"
        " --synthetic\n"
        "              [--algo=nv|ct|sa-traclus|sa-convoys|b]\n"
        "              [--out=anon.csv] [--dump-original=orig.csv]\n"
        "              [--assign-k=5 --assign-delta=250]  (if input lacks "
        "requirements)\n"
        "              [--budget=0.8] [--max-points=500] [--seed=7]\n"
        "              [--threads=N]  (worker threads; 0 = all cores, 1 = "
        "serial;\n"
        "                output is byte-identical for every value)\n"
        "              [--checkpoint=FILE --checkpoint-every=1]  (algo=b: "
        "resume an\n"
        "                interrupted distortion-bound sweep from FILE)\n"
        "              [--trace-out=trace.json] [--metrics-out=metrics.json]\n"
        "              [--csv2store=OUT.wst]  (with --in: convert the CSV to "
        "a binary\n"
        "                trajectory store, streaming, then exit)\n"
        "              [--shards=N]  (algo=ct: partition spatio-temporally "
        "and\n"
        "                anonymize shard-by-shard; 0/absent = monolithic,\n"
        "                1 = single shard, byte-identical to monolithic)\n"
        "              [--margin=M] [--shard-checkpoints=DIR]\n"
        "              [--shard-parallelism=P]\n"
        "              [--deadline-ms=N] [--allow-partial]  (graceful "
        "degradation:\n"
        "                stop at the deadline and publish the verified "
        "part)\n"
        "                SIGINT/SIGTERM also stop cooperatively: the final\n"
        "                checkpoint is flushed so re-running resumes\n"
        "              [--synthetic-tiles=T --tile-spacing=200000]  "
        "(synthetic input\n"
        "                as T independent far-apart cities)");
    return 0;
  }
  if (!log::ConfigureFromArgs(args, "anonymize_csv")) {
    return 1;
  }

  // Streaming CSV -> store conversion: holds one trajectory in memory.
  if (args.Has("csv2store")) {
    if (!args.Has("in")) {
      log::Error("--csv2store requires --in=FILE.csv");
      return 1;
    }
    const std::string store_path = args.GetString("csv2store", "dataset.wst");
    Result<StoreConvertStats> stats =
        ConvertCsvToStore(args.GetString("in", ""), store_path);
    if (!stats.ok()) {
      log::Error("csv2store failed", {{"status", stats.status().ToString()}});
      return 1;
    }
    std::printf("wrote %s: %zu trajectories, %llu points\n",
                store_path.c_str(), stats->trajectories,
                static_cast<unsigned long long>(stats->points));
    return 0;
  }

  Result<Dataset> maybe_dataset = LoadInput(args);
  if (!maybe_dataset.ok()) {
    log::Error("load failed", {{"status", maybe_dataset.status().ToString()}});
    return 1;
  }
  Dataset dataset = std::move(maybe_dataset).value();

  // Optional shape-preserving simplification before anything else
  // (Douglas-Peucker; --simplify-epsilon in metres).
  const double simplify_epsilon = args.GetDouble("simplify-epsilon", 0.0);
  if (simplify_epsilon > 0.0) {
    const size_t before = dataset.TotalPoints();
    dataset = SimplifyDataset(dataset, simplify_epsilon);
    std::printf("simplified %zu -> %zu points (epsilon %.1f m)\n", before,
                dataset.TotalPoints(), simplify_epsilon);
  }

  // Very long trajectories make the quadratic EDR clustering slow; cap the
  // per-trajectory point count unless the user opts out with 0.
  const size_t max_points =
      static_cast<size_t>(args.GetInt("max-points", 500));
  if (max_points >= 2) {
    dataset = DownsampleDataset(dataset, max_points);
  }

  // GeoLife input has no (k_i, delta_i); assign uniform random preferences.
  if (dataset.MinDelta() <= 0.0) {
    Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)) + 1);
    AssignUniformRequirements(
        &dataset, 2, static_cast<int>(args.GetInt("assign-k", 5)), 10.0,
        args.GetDouble("assign-delta", 250.0), &rng);
    std::printf("assigned uniform requirements: k in [2,%lld], delta in "
                "[10,%.0f]\n",
                static_cast<long long>(args.GetInt("assign-k", 5)),
                args.GetDouble("assign-delta", 250.0));
  }
  std::printf("input: %s\n", dataset.DebugString().c_str());

  const std::string algo = args.GetString("algo", "ct");
  const std::string trace_out = args.GetString("trace-out", "");
  const std::string metrics_out = args.GetString("metrics-out", "");
  telemetry::Telemetry telemetry;
  WcopOptions options;
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 7)) + 2;
  options.threads = static_cast<int>(args.GetInt("threads", 0));
  // Always record spans: the final report prints a per-phase wall-time
  // summary even when no --trace-out / --metrics-out export is requested.
  options.telemetry = &telemetry;

  // Cooperative shutdown: SIGINT/SIGTERM flip the cancellation token, the
  // pipeline trips at its next yield point, flushes its final checkpoint
  // (algo=b rounds / per-shard progress), and exits cleanly — a second
  // signal force-kills. --deadline-ms bounds the run the same way.
  RunContext run_context;
  run_context.set_cancellation_token(InstallShutdownSignalHandlers());
  const int64_t deadline_ms = args.GetInt("deadline-ms", 0);
  if (deadline_ms > 0) {
    run_context.set_deadline_after(std::chrono::milliseconds(deadline_ms));
  }
  options.run_context = &run_context;
  options.allow_partial_results = args.GetBool("allow-partial", false);

  const int shards = static_cast<int>(args.GetInt("shards", 0));
  bool per_shard_audit = false;
  Dataset audited_input = dataset;
  AnonymizationResult result;
  if (shards > 0 && algo != "ct") {
    log::Error("--shards is only supported with --algo=ct");
    return 1;
  }
  if (algo == "ct" && shards > 0) {
    // Out-of-core path: persist the (preprocessed) input as a trajectory
    // store, partition it spatio-temporally, anonymize shard by shard.
    const std::string store_path =
        args.GetString("shard-store",
                       args.GetString("out", "anonymized.csv") + ".input.wst");
    Status write_store = store::WriteDatasetStore(dataset, store_path);
    if (!write_store.ok()) {
      log::Error("store write failed", {{"status", write_store.ToString()}});
      return 1;
    }
    Result<store::TrajectoryStoreReader> reader =
        store::TrajectoryStoreReader::Open(store_path);
    if (!reader.ok()) {
      log::Error("store open failed", {{"status", reader.status().ToString()}});
      return 1;
    }
    store::ShardRunOptions run;
    run.wcop = options;
    run.partition.num_shards = static_cast<size_t>(shards);
    run.partition.overlap_margin = args.GetDouble("margin", 0.0);
    run.checkpoint_dir = args.GetString("shard-checkpoints", "");
    run.shard_parallelism =
        static_cast<int>(args.GetInt("shard-parallelism", 1));
    Result<store::ShardedRunResult> r = RunShardedWcopCt(*reader, run);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      if (ShutdownSignalReceived()) {
        std::cerr << "interrupted by signal " << LastShutdownSignal()
                  << "; completed shards are checkpointed — re-run the "
                     "same command to resume\n";
      }
      return 1;
    }
    std::printf("sharded run: %zu shards (grid %zu cells, %zu split, %zu "
                "merged), margin %.1f m%s\n",
                r->partition.shards.size(), r->partition.grid_cells,
                r->partition.cells_split, r->partition.components_merged,
                r->partition.margin,
                r->resumed_shards > 0 ? " [resumed]" : "");
    std::printf("audit: %s (per shard, %zu shards)\n",
                r->all_verified ? "OK" : "FAILED", r->shards.size());
    per_shard_audit = true;
    result = std::move(r->merged);
  } else if (algo == "nv") {
    Result<AnonymizationResult> r = RunWcopNv(dataset, options);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      return 1;
    }
    for (Trajectory& t : audited_input.mutable_trajectories()) {
      t.set_requirement(Requirement{dataset.MaxK(), dataset.MinDelta()});
    }
    result = std::move(r).value();
  } else if (algo == "ct") {
    Result<AnonymizationResult> r = RunWcopCt(dataset, options);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      return 1;
    }
    result = std::move(r).value();
  } else if (algo == "sa-traclus" || algo == "sa-convoys") {
    TraclusOptions traclus_options;
    traclus_options.threads = options.threads;
    traclus_options.telemetry = options.telemetry;
    TraclusSegmenter traclus(traclus_options);
    ConvoyOptions convoy_options;
    convoy_options.min_objects = 2;
    convoy_options.eps = 200.0;
    convoy_options.snapshot_interval = 60.0;
    convoy_options.telemetry = options.telemetry;
    ConvoySegmenter convoys(convoy_options);
    Segmenter* segmenter =
        algo == "sa-traclus" ? static_cast<Segmenter*>(&traclus)
                             : static_cast<Segmenter*>(&convoys);
    Result<WcopSaResult> r = RunWcopSa(dataset, segmenter, options);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      return 1;
    }
    audited_input = r->segmented;
    result = std::move(r->anonymization);
  } else if (algo == "b") {
    Result<AnonymizationResult> baseline = RunWcopCt(dataset, options);
    if (!baseline.ok()) {
      std::cerr << baseline.status() << "\n";
      return 1;
    }
    WcopBOptions b_options;
    b_options.distort_max =
        baseline->report.total_distortion * args.GetDouble("budget", 0.8);
    // Durable progress: with --checkpoint=FILE each completed editing round
    // is persisted, and a re-run of the same command resumes from the last
    // good checkpoint instead of iteration 0.
    b_options.checkpoint_path = args.GetString("checkpoint", "");
    b_options.checkpoint_every_rounds =
        static_cast<size_t>(args.GetInt("checkpoint-every", 1));
    Result<WcopBResult> r = RunWcopB(dataset, options, b_options);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      if (ShutdownSignalReceived() && !b_options.checkpoint_path.empty()) {
        std::cerr << "interrupted by signal " << LastShutdownSignal()
                  << "; completed rounds are checkpointed — re-run the "
                     "same command to resume\n";
      }
      return 1;
    }
    if (r->resumed) {
      std::printf("resumed from %s: %zu rounds restored\n",
                  b_options.checkpoint_path.c_str(), r->resumed_rounds);
    }
    std::printf("WCOP-B: %zu editing rounds, bound %s\n", r->rounds.size(),
                r->bound_satisfied ? "satisfied" : "NOT reachable");
    result = std::move(r->anonymization);
  } else {
    log::Error("unknown --algo", {{"algo", algo}});
    return 1;
  }

  const AnonymizationReport& rep = result.report;
  std::printf("anonymized with %s: %zu clusters, %zu trashed, distortion "
              "%.4g, discernibility %.4g, %.2fs\n",
              algo.c_str(), rep.num_clusters, rep.trashed_trajectories,
              rep.total_distortion, rep.discernibility, rep.runtime_seconds);
  std::printf("--- phase times ---\n%s",
              telemetry.trace().Summary(8).c_str());

  if (!trace_out.empty()) {
    Status s = telemetry.WriteChromeTrace(trace_out);
    if (!s.ok()) {
      log::Error("trace export failed", {{"status", s.ToString()}});
      return 1;
    }
    std::printf("wrote %s (open in chrome://tracing)\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    Status s = WriteJsonFile(MetricsToJson(rep.metrics), metrics_out);
    if (!s.ok()) {
      log::Error("metrics export failed", {{"status", s.ToString()}});
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  // B edits requirements and the sharded path audits per shard (its merged
  // cluster indices live in concatenated-shard order, not dataset order).
  if (algo != "b" && !per_shard_audit) {
    const VerificationReport audit = VerifyAnonymity(audited_input, result);
    std::printf("audit: %s (%zu violations)\n", audit.ok ? "OK" : "FAILED",
                audit.violations);
  }

  const std::string out = args.GetString("out", "anonymized.csv");
  Status write_status = WriteDatasetCsv(result.sanitized, out);
  if (!write_status.ok()) {
    std::cerr << write_status << "\n";
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  if (args.Has("geojson")) {
    // Export for map tools; coordinates re-projected around the GeoLife
    // anchor (matches the parser's default and the synthetic generator's
    // metric frame).
    const LocalProjection projection(39.9057, 116.3913);
    const std::string geo = args.GetString("geojson", "anonymized.geojson");
    if (WriteDatasetGeoJson(result.sanitized, projection, geo).ok()) {
      std::printf("wrote %s (drop onto geojson.io to inspect)\n",
                  geo.c_str());
    }
  }
  if (args.Has("dump-original")) {
    const std::string orig = args.GetString("dump-original", "original.csv");
    if (WriteDatasetCsv(audited_input, orig).ok()) {
      std::printf("wrote %s (plot both files to reproduce Figure 4)\n",
                  orig.c_str());
    }
  }
  return 0;
}
