#ifndef WCOP_ATTACK_ADVERSARY_H_
#define WCOP_ATTACK_ADVERSARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "geo/point.h"
#include "traj/trajectory.h"

namespace wcop {
namespace attack {

/// The knobs of the partial-background-knowledge adversary audited by this
/// subsystem (DESIGN.md §14 "Attack subsystem").
///
/// The adversary holds `observations` timestamped fixes of a victim —
/// drawn from the victim's *original* trajectory, optionally perturbed two
/// ways: GPS-style Gaussian `noise`, and Definition-1 location uncertainty
/// (`pmc_delta` > 0 samples the fixes from a random possible motion curve
/// inside the victim's delta-cylinder instead of the recorded polyline).
/// `tau_seconds` / `epsilon` parameterize the k^{τ,ε}-style effective-
/// anonymity quantifier (Gramaglia et al.): the adversary knows a
/// τ-seconds-long sub-trajectory up to ε metres of spatial tolerance.
struct AdversaryModel {
  size_t observations = 5;    ///< fixes known per victim (s)
  double noise = 0.0;         ///< observation jitter stddev (metres)
  double pmc_delta = 0.0;     ///< Definition-1 uncertainty diameter (metres)
  double tau_seconds = 1800;  ///< sub-trajectory knowledge length (k^{τ,ε})
  double epsilon = 250.0;     ///< sub-trajectory spatial tolerance (metres)
  uint64_t seed = 99;         ///< base seed; per-victim streams are derived
                              ///< with MixSeed(seed, victim key)
};

/// Named presets for the CLI / daemon (`--adversary=`):
///   weak      3 observations, 100 m noise, 250 m uncertainty; τ=15 min,
///             ε=500 m — an opportunistic observer with poor fixes.
///   moderate  5 observations, 25 m noise, no uncertainty; τ=30 min,
///             ε=250 m — the default; a motivated adversary with consumer
///             GPS quality.
///   strong    10 exact observations; τ=1 h, ε=100 m — an insider with
///             clean fixes (the paper's worst-case Definition-1 observer).
/// kInvalidArgument for unknown names.
Result<AdversaryModel> AdversaryPreset(const std::string& name);

/// Samples the adversary's observations of `truth` deterministically from
/// the per-victim stream `MixSeed(model.seed, stream)`: the draw depends
/// only on (model, truth, stream), never on scheduling or on how many
/// victims were processed before this one — the keystone of the audit's
/// byte-identical-across-thread-counts guarantee. `truth` must be
/// non-empty.
std::vector<Point> SampleObservations(const Trajectory& truth,
                                      const AdversaryModel& model,
                                      uint64_t stream);

/// Who an attack targets: indices 0..universe-1 in ascending order — all of
/// them when `cap` is 0 or not below `universe`, else `cap` of them picked
/// by a deterministic shuffle of `seed`, independent of thread count.
/// Re-identification victims and effective-k users are drawn this way.
std::vector<size_t> DrawSubset(size_t universe, size_t cap, uint64_t seed);

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_ADVERSARY_H_
