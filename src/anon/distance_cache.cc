#include "anon/distance_cache.h"

#include <algorithm>
#include <limits>

namespace wcop {

PairDistanceMemo::PairDistanceMemo(const Dataset& dataset,
                                   const DistanceConfig& config,
                                   const RunContext* context,
                                   telemetry::Telemetry* telemetry,
                                   size_t expected_pairs)
    : dataset_(dataset), config_(config), context_(context),
      n_(dataset.size()) {
  if (telemetry != nullptr) {
    distance_calls_ =
        telemetry->metrics().GetCounter(DistanceCallCounterName(config));
    cache_hits_ = telemetry->metrics().GetCounter("distance.cache_hits");
    early_abandoned_ =
        telemetry->metrics().GetCounter("distance.early_abandoned");
    lb_length_ = telemetry->metrics().GetCounter("distance.lb.length_pruned");
    lb_separation_ =
        telemetry->metrics().GetCounter("distance.lb.separation_pruned");
  }
  if (config.kind == DistanceConfig::Kind::kEdr) {
    profiles_.reserve(n_);
    for (const Trajectory& t : dataset.trajectories()) {
      profiles_.push_back(EdrBoundsProfile::Of(t));
    }
  }
  memo_.reserve(expected_pairs);
}

PairDistanceMemo::Distance PairDistanceMemo::Abandoned(
    telemetry::Counter* rung, Distance answer) const {
  telemetry::CounterAdd(early_abandoned_);
  telemetry::CounterAdd(rung);
  return answer;
}

void PairDistanceMemo::Memoize(uint64_t key, double value) {
  memo_.emplace(key, value);
  if (context_ != nullptr) {
    context_->ChargeDistance();
  }
  telemetry::CounterAdd(distance_calls_);
}

PairDistanceMemo::Distance PairDistanceMemo::Lookup(size_t i, size_t j,
                                                    double cutoff) {
  if (i == j) {
    return Distance{0.0, true};
  }
  const uint64_t key = KeyOf(i, j);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    telemetry::CounterAdd(cache_hits_);
    return Distance{it->second, true};
  }
  if (config_.kind == DistanceConfig::Kind::kEdr) {
    const EdrBoundsProfile& pa = profiles_[i];
    const EdrBoundsProfile& pb = profiles_[j];
    const uint32_t maxlen = std::max(pa.length, pb.length);
    if (maxlen == 0) {
      // Two empty trajectories: the length rung's zero is the distance.
      return Abandoned(lb_length_, Distance{0.0, true});
    }
    // When no point pair can match, every alignment costs max length.
    if (EdrSeparated(pa, pb, config_.tolerance)) {
      return Abandoned(lb_separation_,
                       Distance{ToScaled(maxlen, maxlen), true});
    }
    const double bound = ToScaled(EdrLengthLowerBound(pa, pb), maxlen);
    if (bound > cutoff) {
      // The probe at -infinity only reports the bound: it decides nothing.
      return cutoff == -std::numeric_limits<double>::infinity()
                 ? Distance{bound, false}
                 : Abandoned(lb_length_, Distance{bound, false});
    }
  }
  const double d = ClusterDistance(dataset_[i], dataset_[j], config_);
  Memoize(key, d);
  return Distance{d, true};
}

Status PairDistanceMemo::LookupBatch(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const parallel::ParallelOptions& par, std::vector<double>* values) {
  values->assign(pairs.size(), 0.0);
  std::vector<size_t> misses;
  for (size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    if (i == j) {
      continue;
    }
    if (const auto it = memo_.find(KeyOf(i, j)); it != memo_.end()) {
      telemetry::CounterAdd(cache_hits_);
      (*values)[t] = it->second;
    } else {
      misses.push_back(t);
    }
  }
  WCOP_RETURN_IF_ERROR(parallel::ParallelFor(
      misses.size(),
      [&](size_t m) {
        const auto [i, j] = pairs[misses[m]];
        (*values)[misses[m]] =
            ClusterDistance(dataset_[i], dataset_[j], config_);
      },
      par));
  for (const size_t t : misses) {
    const auto [i, j] = pairs[t];
    const uint64_t key = KeyOf(i, j);
    if (const auto it = memo_.find(key); it != memo_.end()) {
      // The same pair in an earlier slot: the hit a serial lookup makes.
      telemetry::CounterAdd(cache_hits_);
    } else {
      Memoize(key, (*values)[t]);
    }
  }
  return Status::OK();
}

}  // namespace wcop
