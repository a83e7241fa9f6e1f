#ifndef WCOP_BENCH_BENCH_UTIL_H_
#define WCOP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "anon/report_json.h"
#include "common/arg_parser.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "segment/convoy.h"
#include "segment/traclus.h"
#include "traj/dataset.h"

namespace wcop {
namespace bench {

/// Shared scale parameters of the experiment harness. Every bench binary
/// accepts the same flags; the defaults reproduce the paper's dataset
/// *structure* (238 trajectories, 72 users, Beijing-scale region) at a
/// point density where the quadratic EDR clustering completes in seconds.
/// `--full` switches to the paper's full 343k-point scale.
struct BenchScale {
  size_t trajectories = 238;
  size_t users = 72;
  size_t points = 120;
  uint64_t seed = 7;
  bool full = false;
  /// Worker threads for the EDR hot paths (0 = all cores, 1 = serial).
  /// Timing changes, results do not — see DESIGN.md "Parallel execution".
  int threads = 0;

  static BenchScale FromArgs(const ArgParser& args) {
    BenchScale s;
    s.full = args.GetBool("full", false);
    s.trajectories =
        static_cast<size_t>(args.GetInt("trajectories", 238));
    s.points = static_cast<size_t>(args.GetInt("points", s.full ? 1442 : 120));
    s.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    s.threads = static_cast<int>(args.GetInt("threads", 0));
    return s;
  }
};

/// Builds the synthetic GeoLife stand-in at the requested scale (no
/// requirements assigned yet — each experiment assigns its own (K, Delta)
/// distribution, as the paper does per experiment).
inline Dataset MakeBenchDataset(const BenchScale& scale) {
  SyntheticOptions options;  // defaults mirror Table 2
  options.seed = scale.seed;
  options.num_trajectories = scale.trajectories;
  options.num_users = scale.users;
  options.points_per_trajectory = scale.points;
  // Keep trip duration paper-like even at reduced point counts by widening
  // the sampling interval (fewer samples over the same span).
  options.sampling_interval = 3.0 * 1442.0 / static_cast<double>(scale.points);
  // A GeoLife-like mix of shared routes, ad hoc trips and off-network
  // outliers: enough solitary movement that universal-k clustering really
  // over-anonymizes and the demanding-trajectory editing of WCOP-B has
  // structure to exploit.
  options.popular_route_prob = 0.5;
  options.companion_prob = 0.25;
  options.outlier_fraction = 0.08;
  Dataset dataset = GenerateSyntheticGeoLife(options).value();
  return dataset;
}

/// Assigns the paper's experimental requirement distribution
/// k ~ U{2..k_max}, delta ~ U[10, delta_max].
inline void AssignPaperRequirements(Dataset* dataset, int k_max,
                                    double delta_max, uint64_t seed) {
  Rng rng(seed);
  AssignUniformRequirements(dataset, 2, k_max, 10.0, delta_max, &rng);
}

/// Convoy parameters used by all SA-Convoys benches: co-movement within
/// 250 m for at least 3 consecutive minutes, pairs and up.
inline ConvoyOptions BenchConvoyOptions() {
  ConvoyOptions options;
  options.min_objects = 2;
  options.eps = 250.0;
  options.min_duration_snapshots = 3;
  options.snapshot_interval = 60.0;
  return options;
}

/// TRACLUS parameters used by all SA-Traclus benches: slight MDL advantage
/// so sub-trajectories land near the paper's ~19-point granularity.
inline TraclusOptions BenchTraclusOptions() {
  TraclusOptions options;
  options.mdl_advantage = 4.0;
  options.min_sub_trajectory_points = 4;
  return options;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// The shape checks a paper bench prints against the paper's claims.
/// Tag() returns the "ok" / "MISMATCH" label for one check and counts the
/// mismatches; main() returns ExitCode(), so a bench whose output no
/// longer has the paper's shape fails (the ctest `paper` label runs them).
class ShapeChecks {
 public:
  const char* Tag(bool ok) {
    mismatches_ += ok ? 0 : 1;
    return ok ? "ok" : "MISMATCH";
  }

  int ExitCode() const {
    if (mismatches_ == 0) {
      return 0;
    }
    std::fprintf(stderr, "%d shape check(s) do not match the paper\n",
                 mismatches_);
    return 1;
  }

 private:
  int mismatches_ = 0;
};

/// Machine-readable bench output behind the shared `--json-out=FILE` flag:
/// each benchmark configuration appends one record
///
///   {"bench":"table3","config":{"points":120,...},"seconds":1.23,
///    "metrics":{"counters":{...},"gauges":{...},"histograms":{...}},
///    "delta":{"counters":{...}}}
///
/// `delta.counters` is this phase's counter increase over the previous
/// Add() — benches typically share one registry across configurations, so
/// the cumulative `metrics.counters` conflates phases while the delta
/// isolates each one (e.g. distance calls attributable to *this* config).
///
/// Flush() writes the array. A missing flag turns everything into a
/// no-op so benches can call Add/Flush unconditionally.
class JsonOut {
 public:
  explicit JsonOut(const ArgParser& args)
      : path_(args.GetString("json-out", "")) {}

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& bench,
           const std::vector<std::pair<std::string, double>>& config,
           double seconds, const telemetry::MetricsSnapshot& metrics) {
    if (!enabled()) {
      return;
    }
    std::ostringstream os;
    os << "{\"bench\":\"" << bench << "\",\"config\":{";
    for (size_t i = 0; i < config.size(); ++i) {
      if (i != 0) {
        os << ",";
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", config[i].second);
      os << "\"" << config[i].first << "\":" << buf;
    }
    char seconds_buf[64];
    std::snprintf(seconds_buf, sizeof(seconds_buf), "%.10g", seconds);
    os << "},\"seconds\":" << seconds_buf
       << ",\"metrics\":" << MetricsToJson(metrics);
    os << ",\"delta\":{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : metrics.counters) {
      const auto it = last_counters_.find(name);
      // A phase that runs on a fresh registry restarts from zero; treat a
      // shrinking counter as a restart and report the absolute value.
      const uint64_t delta =
          (it != last_counters_.end() && value >= it->second)
              ? value - it->second
              : value;
      if (delta == 0) {
        continue;
      }
      os << (first ? "" : ",") << "\"" << name << "\":" << delta;
      first = false;
    }
    os << "}}}";
    last_counters_.clear();
    for (const auto& [name, value] : metrics.counters) {
      last_counters_[name] = value;
    }
    records_.push_back(os.str());
  }

  /// Writes the accumulated records; reports failure on stderr and returns
  /// false so main() can propagate a non-zero exit.
  bool Flush() const {
    if (!enabled()) {
      return true;
    }
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot open --json-out file: %s\n", path_.c_str());
      return false;
    }
    out << "[";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << (i == 0 ? "\n  " : ",\n  ") << records_[i];
    }
    out << "\n]\n";
    if (!out) {
      std::fprintf(stderr, "write failed: %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %zu bench records to %s\n", records_.size(),
                path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::vector<std::string> records_;
  /// Counter values at the previous Add(), for per-phase deltas.
  std::map<std::string, uint64_t> last_counters_;
};

}  // namespace bench
}  // namespace wcop

#endif  // WCOP_BENCH_BENCH_UTIL_H_
