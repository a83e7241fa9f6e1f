#ifndef WCOP_PERFBENCH_WORKLOADS_H_
#define WCOP_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads, shared by the input generator and the measured
// program so that both agree on every shape parameter. Each workload stresses
// a different layer; run.py's docstring records why each was chosen.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wcop {
namespace perfbench {

struct Workload {
  const char* name;

  // Input shape: synthetic GeoLife, one city, requirements drawn from the
  // paper's distribution k ~ U{2..5}, delta ~ U[10, 250] m.
  size_t trajectories;
  size_t points;             ///< fixes per trajectory
  double sampling_interval;  ///< seconds between fixes
  double span_days;          ///< departures spread over this many days

  // Run shape. Thread counts are pinned so that neither the machine nor
  // WCOP_THREADS chooses them; the pool never starts at 1.
  int threads;
  /// Width of the publication windows of RunContinuousPipeline; 0 publishes
  /// the whole store as one batch job.
  double window_seconds;
  size_t victims;  ///< audit cap on re-identification victims / users

  bool continuous() const { return window_seconds > 0.0; }
};

/// Seed of every workload's trips; the run seed draws only (k, delta), from
/// the paper's distribution k ~ U{kMinK..kMaxK}, delta ~ U[kMinDelta,
/// kMaxDelta] metres (see generate.cc).
inline constexpr uint64_t kCitySeed = 2016;
/// Share of off-network random walks (GeoLife hikers) in every workload.
inline constexpr double kOutlierFraction = 0.02;

inline constexpr int kMinK = 2;
inline constexpr int kMaxK = 5;
inline constexpr double kMinDelta = 10.0;
inline constexpr double kMaxDelta = 250.0;

// `many_short` is scaled down from the prototype's 8,000 x 8 so that one run
// repeats the whole ingest -> publish -> audit cycle several times; the
// shape is kept. `continuous` keeps its size: 144 windows give the
// per-window p90 more than ten windows beyond it in every cycle.
inline constexpr Workload kWorkloads[] = {
    {"many_short", 4000, 8, 60.0, 0.25, 4, 0.0, 1024},
    {"continuous", 6000, 40, 10.0, 3.0, 1, 1800.0, 1024},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
}  // namespace wcop

#endif  // WCOP_PERFBENCH_WORKLOADS_H_
