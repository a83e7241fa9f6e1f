#include "distance/edr.h"

#include <algorithm>
#include <cmath>

#include "distance/edr_kernel.h"

namespace wcop {

EdrTolerance EdrTolerance::FromDeltaMax(double delta_max, double avg_speed) {
  EdrTolerance tol;
  tol.dx = 10.0 * delta_max;
  tol.dy = 10.0 * delta_max;
  tol.dt = avg_speed > 0.0 ? 10.0 * delta_max / avg_speed
                           : std::numeric_limits<double>::infinity();
  return tol;
}

bool EdrTolerance::Matches(const Point& a, const Point& b) const {
  return std::abs(a.x - b.x) <= dx && std::abs(a.y - b.y) <= dy &&
         std::abs(a.t - b.t) <= dt;
}

double EdrDistance(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tolerance) {
  return static_cast<double>(EdrOps(a, b, tolerance));
}

double EdrDistance(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tolerance, double cutoff,
                   bool* abandoned) {
  const double bound = a.size() >= b.size()
                           ? static_cast<double>(a.size() - b.size())
                           : static_cast<double>(b.size() - a.size());
  if (bound > cutoff) {
    if (abandoned != nullptr) {
      *abandoned = true;
    }
    return bound;
  }
  if (abandoned != nullptr) {
    *abandoned = false;
  }
  return EdrDistance(a, b, tolerance);
}

double NormalizedEdrDistance(const Trajectory& a, const Trajectory& b,
                             const EdrTolerance& tolerance) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) {
    return 0.0;
  }
  return EdrDistance(a, b, tolerance) / static_cast<double>(longest);
}

bool IsValidOpSequence(const std::vector<EdrOp>& ops, size_t traj_size,
                       size_t pivot_size) {
  size_t next_traj = 0;
  size_t next_pivot = 0;
  for (const EdrOp& op : ops) {
    switch (op.kind) {
      case EdrOp::Kind::kMatch:
        if (op.traj_index != next_traj || op.pivot_index != next_pivot) {
          return false;
        }
        ++next_traj;
        ++next_pivot;
        break;
      case EdrOp::Kind::kDeleteFromTraj:
        if (op.traj_index != next_traj) {
          return false;
        }
        ++next_traj;
        break;
      case EdrOp::Kind::kDeleteFromPivot:
        if (op.pivot_index != next_pivot) {
          return false;
        }
        ++next_pivot;
        break;
    }
  }
  return next_traj == traj_size && next_pivot == pivot_size;
}

}  // namespace wcop
