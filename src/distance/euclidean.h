#ifndef WCOP_DISTANCE_EUCLIDEAN_H_
#define WCOP_DISTANCE_EUCLIDEAN_H_

#include "traj/trajectory.h"

namespace wcop {

/// Synchronized Euclidean distance between two trajectories — the distance
/// NWA's clustering operates on. The trajectories are compared at the union
/// of their sample timestamps over their *overlapping* time interval, using
/// linear interpolation, and the mean spatial distance is returned.
///
/// Returns +infinity when the trajectories do not overlap in time (NWA would
/// never put them in the same equivalence class).
double SynchronizedEuclideanDistance(const Trajectory& a, const Trajectory& b);

}  // namespace wcop

#endif  // WCOP_DISTANCE_EUCLIDEAN_H_
