#ifndef WCOP_DATA_SYNTHETIC_H_
#define WCOP_DATA_SYNTHETIC_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "traj/dataset.h"

namespace wcop {

/// Deterministic synthetic stand-in for the paper's GeoLife sample
/// (Table 2). See DESIGN.md §4 for the substitution rationale.
///
/// The generator lays out a hub-and-route network over a Beijing-scale
/// region and lets synthetic users travel along (laterally offset, jittered)
/// shared routes, occasionally in companion groups that depart together —
/// giving the segmentation algorithms (TRACLUS direction changes, Convoy
/// co-movement) and the personalized clustering real structure to exploit.
struct SyntheticOptions {
  uint64_t seed = 42;

  // Table 2 targets.
  size_t num_users = 72;
  size_t num_trajectories = 238;
  size_t points_per_trajectory = 1442;   ///< 238 * 1442 ~= 343k points
  double sampling_interval = 3.0;        ///< seconds between fixes
  double region_half_diagonal = 51982.0; ///< metres
  double avg_speed = 6.36;               ///< m/s
  double speed_stddev = 1.5;
  double dataset_duration_days = 1477.0;

  // Road-network shape.
  size_t num_hubs = 16;
  size_t num_routes = 24;          ///< size of the popular-route pool
  size_t waypoints_per_leg = 8;    ///< wiggle points per hub-to-hub leg
  double route_wiggle_sigma = 250.0;  ///< lateral jitter of route waypoints

  // Behaviour.
  double popular_route_prob = 0.75;   ///< travel a popular route vs ad hoc
  double companion_prob = 0.35;       ///< depart together with previous user
  double route_lateral_sigma = 40.0;  ///< per-trajectory lane offset (m)
  double gps_noise_sigma = 6.0;       ///< per-fix GPS noise (m)

  /// Fraction of trajectories that are *outliers*: free random walks off
  /// the road network entirely (GeoLife has hikers, boats, flights). They
  /// resemble nothing else, so clustering-based anonymizers either drag
  /// them into distant clusters or trash them — the source of the paper's
  /// Table 3 trash counts.
  double outlier_fraction = 0.0;

  /// Convenience: a benchmark-scale copy of these options with
  /// `points` points per trajectory (and the same structure otherwise).
  SyntheticOptions WithPointsPerTrajectory(size_t points) const {
    SyntheticOptions out = *this;
    out.points_per_trajectory = points;
    return out;
  }

  /// The city of `anonymize_csv --synthetic --seed=S --trajectories=N
  /// --points=P`: N trajectories of P points by N / 3 + 1 users in a
  /// 20 km region over 60 days, the other fields at their defaults.
  static SyntheticOptions CommandLine(uint64_t seed, size_t trajectories,
                                      size_t points) {
    SyntheticOptions out;
    out.seed = seed;
    out.num_trajectories = trajectories;
    out.num_users = trajectories / 3 + 1;
    out.points_per_trajectory = points;
    out.region_half_diagonal = 20000.0;
    out.dataset_duration_days = 60.0;
    return out;
  }
};

/// Generates the synthetic dataset. Fails on inconsistent options (zero
/// trajectories, non-positive interval, fewer than two hubs, ...).
Result<Dataset> GenerateSyntheticGeoLife(const SyntheticOptions& options);

/// Generates `tiles` independent synthetic cities laid out on a square
/// grid with `tile_spacing` metres between tile origins, each a
/// GenerateSyntheticGeoLife run with its own derived seed and
/// `options.num_trajectories` trajectories (ids and object ids are
/// renumbered globally). With a spacing comfortably above the anonymizers'
/// distance tolerances the tiles are genuinely independent — the shape of
/// real multi-region corpora, and the input that makes the sharded
/// pipeline (store/shard_runner.h) partition into more than one shard.
Result<Dataset> GenerateTiledSyntheticGeoLife(const SyntheticOptions& options,
                                              size_t tiles,
                                              double tile_spacing);

/// Assigns each trajectory an independent uniform requirement
/// k ~ U{k_min..k_max}, delta ~ U[delta_min, delta_max] — the distribution
/// of the paper's experiments (Section 6.2: k in [2,100], delta in
/// [10,1400]).
void AssignUniformRequirements(Dataset* dataset, int k_min, int k_max,
                               double delta_min, double delta_max, Rng* rng);

/// Requirement profiles for the example scenarios: a share of
/// privacy-conscious users gets high k / low delta; the rest are relaxed.
struct RequirementProfile {
  double strict_fraction = 0.2;
  int strict_k = 25;
  double strict_delta = 50.0;
  int relaxed_k = 3;
  double relaxed_delta = 500.0;
};
void AssignProfileRequirements(Dataset* dataset,
                               const RequirementProfile& profile, Rng* rng);

}  // namespace wcop

#endif  // WCOP_DATA_SYNTHETIC_H_
