#include "anon/types.h"

#include "distance/euclidean.h"

namespace wcop {

double ClusterDistance(const Trajectory& a, const Trajectory& b,
                       const DistanceConfig& config) {
  switch (config.kind) {
    case DistanceConfig::Kind::kEdr:
      return NormalizedEdrDistance(a, b, config.tolerance) * config.edr_scale;
    case DistanceConfig::Kind::kSynchronizedEuclidean:
      return SynchronizedEuclideanDistance(a, b);
  }
  return 0.0;
}

const char* DistanceCallCounterName(const DistanceConfig& config) {
  switch (config.kind) {
    case DistanceConfig::Kind::kEdr:
      return "distance.calls.edr";
    case DistanceConfig::Kind::kSynchronizedEuclidean:
      return "distance.calls.sync_euclidean";
  }
  return "distance.calls.unknown";
}

}  // namespace wcop
