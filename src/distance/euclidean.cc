#include "distance/euclidean.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace wcop {

namespace {

/// Collects the union of both trajectories' timestamps restricted to the
/// overlap [t_lo, t_hi]; always includes the interval endpoints.
std::vector<double> OverlapTimestamps(const Trajectory& a, const Trajectory& b,
                                      double t_lo, double t_hi) {
  std::vector<double> times;
  times.push_back(t_lo);
  auto add_range = [&](const Trajectory& t) {
    for (const Point& p : t.points()) {
      if (p.t > t_lo && p.t < t_hi) {
        times.push_back(p.t);
      }
    }
  };
  add_range(a);
  add_range(b);
  times.push_back(t_hi);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

}  // namespace

double SynchronizedEuclideanDistance(const Trajectory& a,
                                     const Trajectory& b) {
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  const double t_lo = std::max(a.StartTime(), b.StartTime());
  const double t_hi = std::min(a.EndTime(), b.EndTime());
  if (t_lo > t_hi) {
    return std::numeric_limits<double>::infinity();
  }
  const std::vector<double> times = OverlapTimestamps(a, b, t_lo, t_hi);
  double total = 0.0;
  for (double t : times) {
    total += SpatialDistance(a.PositionAt(t), b.PositionAt(t));
  }
  return total / static_cast<double>(times.size());
}

}  // namespace wcop
