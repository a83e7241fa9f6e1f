// Red-team scaling bench: re-identification audit throughput against
// growing out-of-core corpora. The store is generated tile by tile and
// never materialized in memory; the attack descends a box tree over the
// index rows and block-reads only candidates that survive the certified
// MBR lower bound, so audit cost per victim grows with the *surviving*
// candidate set, not the corpus, once the tree is built. The bench reports
// candidates/sec and the join's row and node tests at each scale and
// fails if
//
//   - the exact-observation adversary does not pin its victim on raw data
//     (top-1 < 0.99: the attack engine itself is broken), or
//   - peak RSS exceeds --rss-budget-mb (the audit stopped being
//     out-of-core).
//
// Usage:
//   ./attack_scaling [--trajectories=8000] [--victims=128] [--threads=0]
//                    [--rss-budget-mb=2048] [--keep-store]
//                    [--json-out=FILE]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "attack/candidate_source.h"
#include "attack/reident.h"
#include "bench_util.h"
#include "common/arg_parser.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "store/store_file.h"

using namespace wcop;
using bench::JsonOut;

namespace {

constexpr size_t kPerTile = 125;      // trajectories per synthetic city
constexpr size_t kPointsPerTraj = 12;
constexpr double kTileSpacing = 200000.0;  // metres between city origins

// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 off Linux.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Tile `tile` of the corpus. Deterministic in `tile` alone, so a smaller
// corpus is an exact prefix of a larger one and scaling curves compare
// like with like.
Result<Dataset> MakeTile(size_t tile, size_t grid_dim) {
  SyntheticOptions gen;
  gen.seed = 7 + 0x9e3779b97f4a7c15ull * (tile + 1);
  gen.num_users = kPerTile / 3 + 1;
  gen.num_trajectories = kPerTile;
  gen.points_per_trajectory = kPointsPerTraj;
  gen.sampling_interval = 60.0;
  gen.region_half_diagonal = 6000.0;
  gen.dataset_duration_days = 10.0;
  WCOP_ASSIGN_OR_RETURN(Dataset city, GenerateSyntheticGeoLife(gen));
  Rng rng(1000 + tile);
  AssignUniformRequirements(&city, 2, 5, 10.0, 200.0, &rng);
  const double dx = static_cast<double>(tile % grid_dim) * kTileSpacing;
  const double dy = static_cast<double>(tile / grid_dim) * kTileSpacing;
  const int64_t id_base = static_cast<int64_t>(tile * kPerTile);
  for (Trajectory& t : city.mutable_trajectories()) {
    for (Point& p : t.mutable_points()) {
      p.x += dx;
      p.y += dy;
    }
    t.set_id(id_base + t.id());
    t.set_object_id(id_base + t.object_id());
  }
  return city;
}

Status WriteCorpus(const std::string& path, size_t tiles, size_t grid_dim) {
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreWriter writer,
                        store::TrajectoryStoreWriter::Create(path));
  for (size_t tile = 0; tile < tiles; ++tile) {
    WCOP_ASSIGN_OR_RETURN(Dataset city, MakeTile(tile, grid_dim));
    for (const Trajectory& t : city.trajectories()) {
      WCOP_RETURN_IF_ERROR(writer.Append(t));
    }
  }
  return writer.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const size_t max_trajectories =
      static_cast<size_t>(args.GetInt("trajectories", 8000));
  const size_t victims = static_cast<size_t>(args.GetInt("victims", 128));
  const int threads = static_cast<int>(args.GetInt("threads", 0));
  const double rss_budget_mb = args.GetDouble("rss-budget-mb", 2048.0);
  JsonOut json_out(args);

  bench::PrintHeader("Re-identification audit scaling (out-of-core)");

  // Sweep three corpus sizes up to the requested scale.
  std::vector<size_t> sizes;
  for (const size_t divisor : {16u, 4u, 1u}) {
    const size_t n =
        std::max(kPerTile, (max_trajectories / divisor / kPerTile) * kPerTile);
    if (sizes.empty() || n > sizes.back()) {
      sizes.push_back(n);
    }
  }

  bool ok = true;
  for (const size_t n : sizes) {
    const size_t tiles = n / kPerTile;
    size_t grid_dim = 1;
    while (grid_dim * grid_dim < tiles) {
      ++grid_dim;
    }
    const std::string store_path =
        "attack_scaling_" + std::to_string(n) + ".wst";
    Stopwatch gen_watch;
    if (Status s = WriteCorpus(store_path, tiles, grid_dim); !s.ok()) {
      std::fprintf(stderr, "corpus %zu failed: %s\n", n,
                   s.ToString().c_str());
      return 1;
    }
    const double gen_seconds = gen_watch.ElapsedSeconds();

    Result<attack::StoreCandidateSource> source =
        attack::StoreCandidateSource::Open(store_path);
    if (!source.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }

    // Exact-fix adversary against the raw corpus: measures engine
    // throughput, and its top-1 rate doubles as a correctness gate.
    telemetry::Telemetry telemetry;
    attack::ReidentOptions options;
    options.adversary.observations = 5;
    options.adversary.noise = 0.0;
    options.adversary.seed = 99;
    options.num_victims = std::min(victims, n);
    options.threads = threads;
    options.telemetry = &telemetry;
    Stopwatch watch;
    Result<attack::ReidentResult> result =
        RunReidentAttack(*source, *source, options);
    const double seconds = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "attack failed at %zu: %s\n", n,
                   result.status().ToString().c_str());
      return 1;
    }
    const double walked = static_cast<double>(result->candidates_total);
    const double candidates_per_sec = walked / std::max(seconds, 1e-9);
    const double pruned_fraction =
        result->candidates_total == 0
            ? 0.0
            : static_cast<double>(result->candidates_pruned) / walked;
    const double peak_rss_mb = PeakRssMb();
    // The join's work: (victim, row) and (victim, tree node) tests.
    const telemetry::MetricsSnapshot metrics = telemetry.metrics().Snapshot();
    const uint64_t row_tests = metrics.CounterValue("attack.join.row_tests");
    const uint64_t node_tests = metrics.CounterValue("attack.join.node_tests");
    std::printf("n=%zu: %zu victims in %.3fs (gen %.1fs) — %.3g cand/s, "
                "pruned %.1f%% (row tests %llu, node tests %llu), top-1 "
                "%.3f, RSS %.0f MiB\n",
                n, result->victims_attacked, seconds, gen_seconds,
                candidates_per_sec, 100.0 * pruned_fraction,
                static_cast<unsigned long long>(row_tests),
                static_cast<unsigned long long>(node_tests),
                result->top1_success, peak_rss_mb);

    json_out.Add("attack_scaling/reident",
                 {{"trajectories", static_cast<double>(n)},
                  {"points", static_cast<double>(kPointsPerTraj)},
                  {"victims", static_cast<double>(result->victims_attacked)},
                  {"threads", static_cast<double>(threads)},
                  {"candidates_per_sec", candidates_per_sec},
                  {"pruned_fraction", pruned_fraction},
                  {"row_tests", static_cast<double>(row_tests)},
                  {"node_tests", static_cast<double>(node_tests)},
                  {"top1_success", result->top1_success},
                  {"generate_seconds", gen_seconds},
                  {"peak_rss_mb", peak_rss_mb}},
                 seconds, metrics);

    if (result->top1_success < 0.99) {
      std::fprintf(stderr,
                   "FAIL: exact adversary top-1 %.3f < 0.99 on raw data "
                   "(n=%zu)\n",
                   result->top1_success, n);
      ok = false;
    }
    if (peak_rss_mb > rss_budget_mb) {
      std::fprintf(stderr, "FAIL: peak RSS %.0f MiB exceeds budget %.0f MiB\n",
                   peak_rss_mb, rss_budget_mb);
      ok = false;
    }
    if (!args.GetBool("keep-store", false)) {
      std::filesystem::remove(store_path);
    }
  }

  if (!json_out.Flush()) {
    return 1;
  }
  if (!ok) {
    return 1;
  }
  std::printf("PASS: audited %zu scales within %.0f MiB\n", sizes.size(),
              rss_budget_mb);
  return 0;
}
