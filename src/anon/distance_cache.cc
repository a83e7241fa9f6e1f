#include "anon/distance_cache.h"

#include <algorithm>

#include "distance/edr_kernel.h"

namespace wcop {

namespace {

/// Below this length the envelope sweep costs about as much as the DP it
/// tries to avoid; shorter pairs go straight to the kernel.
constexpr uint32_t kEnvelopeMinLen = 4;

}  // namespace

ShardedPairDistanceCache::ShardedPairDistanceCache(
    const Dataset& dataset, const DistanceConfig& config,
    const RunContext* context, telemetry::Telemetry* telemetry,
    size_t expected_pairs)
    : dataset_(dataset), config_(config), context_(context),
      n_(dataset.size()) {
  if (telemetry != nullptr) {
    // Resolve the counters once; the per-lookup path then pays one atomic
    // add per event — cache hits touch nothing budget-related, matching
    // the RunContext accounting exactly.
    distance_calls_ =
        telemetry->metrics().GetCounter(DistanceCallCounterName(config));
    cache_hits_ = telemetry->metrics().GetCounter("distance.cache_hits");
    early_abandoned_ =
        telemetry->metrics().GetCounter("distance.early_abandoned");
    lb_length_ = telemetry->metrics().GetCounter("distance.lb.length_pruned");
    lb_separation_ =
        telemetry->metrics().GetCounter("distance.lb.separation_pruned");
    lb_envelope_ =
        telemetry->metrics().GetCounter("distance.lb.envelope_pruned");
  }
  cascade_ = config.cascade && config.kind == DistanceConfig::Kind::kEdr &&
             config.edr_scale > 0.0;
  if (cascade_) {
    profiles_.reserve(n_);
    for (const Trajectory& t : dataset.trajectories()) {
      profiles_.push_back(EdrBoundsProfile::Of(t));
    }
  }
  const size_t per_shard = expected_pairs / kShards + 1;
  for (Shard& shard : shards_) {
    shard.map.reserve(per_shard);
  }
}

double ShardedPairDistanceCache::StoreExact(Shard& shard, uint64_t key,
                                            double value) {
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(key, Entry{value, false});
    if (inserted) {
      winner = true;
    } else if (it->second.is_bound) {
      it->second = Entry{value, false};  // upgrade a lower bound
      winner = true;
    } else {
      value = it->second.value;  // lost the race to an exact value
    }
  }
  if (winner) {
    if (context_ != nullptr) {
      context_->ChargeDistance();
    }
    telemetry::CounterAdd(distance_calls_);
    computed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Under serial execution this call would have been the cache hit.
    telemetry::CounterAdd(cache_hits_);
  }
  return value;
}

double ShardedPairDistanceCache::StoreAnalyticExact(
    Shard& shard, uint64_t key, double value,
    telemetry::Counter* rung_counter) {
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(key, Entry{value, false});
    if (inserted) {
      winner = true;
    } else if (it->second.is_bound) {
      it->second = Entry{value, false};
      winner = true;
    } else {
      value = it->second.value;
    }
  }
  if (winner) {
    // The certificate *is* the distance; no DP ran, so neither the budget
    // nor distance.calls.* moves. The lookup still counts as an early
    // abandon of the exact DP — distance.early_abandoned totals every
    // cascade resolution, with distance.lb.* as the per-rung breakdown.
    telemetry::CounterAdd(early_abandoned_);
    telemetry::CounterAdd(rung_counter);
    abandoned_.fetch_add(1, std::memory_order_relaxed);
    analytic_.fetch_add(1, std::memory_order_relaxed);
  } else {
    telemetry::CounterAdd(cache_hits_);
  }
  return value;
}

double ShardedPairDistanceCache::StoreBound(Shard& shard, uint64_t key,
                                            double value,
                                            telemetry::Counter* rung_counter) {
  telemetry::CounterAdd(early_abandoned_);
  telemetry::CounterAdd(rung_counter);
  abandoned_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key, Entry{value, true});
  if (!inserted) {
    if (!it->second.is_bound) {
      return it->second.value;  // a racing exact insert wins over our bound
    }
    // Keep the tighter of two certified bounds (within one scan all racers
    // share a cutoff, so the stored value stays schedule-independent).
    it->second.value = std::max(it->second.value, value);
  }
  return value;
}

void ShardedPairDistanceCache::CountBoundPrune(BoundRung rung) {
  if (rung == BoundRung::kCached) {
    // The decision was made by a previously stored (and already counted)
    // bound — the same event a cutoff lookup served from the cache counts.
    telemetry::CounterAdd(cache_hits_);
    return;
  }
  telemetry::CounterAdd(early_abandoned_);
  abandoned_.fetch_add(1, std::memory_order_relaxed);
  switch (rung) {
    case BoundRung::kLength:
      telemetry::CounterAdd(lb_length_);
      break;
    case BoundRung::kSeparation:
      telemetry::CounterAdd(lb_separation_);
      break;
    case BoundRung::kEnvelope:
      telemetry::CounterAdd(lb_envelope_);
      break;
    case BoundRung::kCached:
      break;
  }
}

double ShardedPairDistanceCache::Get(size_t i, size_t j) {
  if (i == j) {
    return 0.0;
  }
  const uint64_t key = KeyOf(i, j);
  Shard& shard = ShardOf(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && !it->second.is_bound) {
      telemetry::CounterAdd(cache_hits_);
      return it->second.value;
    }
  }
  if (cascade_) {
    const EdrBoundsProfile& pa = profiles_[i];
    const EdrBoundsProfile& pb = profiles_[j];
    const uint32_t maxlen = std::max(pa.length, pb.length);
    if (maxlen > 0) {
      // Analytic certificates short-circuit even an exact request: when no
      // point pair can match, the distance is max length — exactly what
      // the DP would return.
      if (EdrSeparated(pa, pb, config_.tolerance)) {
        return StoreAnalyticExact(shard, key, ToScaled(maxlen, maxlen),
                                  lb_separation_);
      }
      if (maxlen >= kEnvelopeMinLen) {
        const EdrEnvelopeBound env = EdrEnvelopeLowerBound(
            dataset_[i], pa, dataset_[j], pb, config_.tolerance);
        if (env.exact) {
          return StoreAnalyticExact(shard, key, ToScaled(env.bound, maxlen),
                                    lb_envelope_);
        }
      }
    }
  }
  const double d = ClusterDistance(dataset_[i], dataset_[j], config_);
  return StoreExact(shard, key, d);
}

double ShardedPairDistanceCache::GetWithCutoff(size_t i, size_t j,
                                               double cutoff) {
  if (i == j) {
    return 0.0;
  }
  const uint64_t key = KeyOf(i, j);
  Shard& shard = ShardOf(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() &&
        (!it->second.is_bound || it->second.value > cutoff)) {
      telemetry::CounterAdd(cache_hits_);
      return it->second.value;
    }
  }
  if (!cascade_) {
    // Legacy path (also kSynchronizedEuclidean): length bound only.
    bool was_abandoned = false;
    const double d = ClusterDistanceWithCutoff(
        dataset_[i], dataset_[j], config_, cutoff, &was_abandoned);
    if (!was_abandoned) {
      return StoreExact(shard, key, d);
    }
    return StoreBound(shard, key, d, lb_length_);
  }
  const EdrBoundsProfile& pa = profiles_[i];
  const EdrBoundsProfile& pb = profiles_[j];
  const uint32_t maxlen = std::max(pa.length, pb.length);
  if (maxlen == 0) {
    return StoreExact(shard, key, 0.0);  // two empty trajectories
  }
  // Rung 1: length bound, O(1).
  const double length_bound = ToScaled(EdrLengthLowerBound(pa, pb), maxlen);
  if (length_bound > cutoff) {
    return StoreBound(shard, key, length_bound, lb_length_);
  }
  // Rung 2: separation certificate, O(1) — an analytic *exact*.
  if (EdrSeparated(pa, pb, config_.tolerance)) {
    return StoreAnalyticExact(shard, key, ToScaled(maxlen, maxlen),
                              lb_separation_);
  }
  // Rung 3: envelope bound, O(n+m).
  if (maxlen >= kEnvelopeMinLen) {
    const EdrEnvelopeBound env = EdrEnvelopeLowerBound(
        dataset_[i], pa, dataset_[j], pb, config_.tolerance);
    if (env.exact) {
      return StoreAnalyticExact(shard, key, ToScaled(env.bound, maxlen),
                                lb_envelope_);
    }
    const double envelope_bound = ToScaled(env.bound, maxlen);
    if (envelope_bound > cutoff) {
      return StoreBound(shard, key, envelope_bound, lb_envelope_);
    }
  }
  // Refine: exact DP kernel.
  return StoreExact(
      shard, key,
      ToScaled(EdrOps(dataset_[i], dataset_[j], config_.tolerance), maxlen));
}

ShardedPairDistanceCache::ProbeResult ShardedPairDistanceCache::CheapProbe(
    size_t i, size_t j) {
  ProbeResult result;
  if (i == j) {
    result.value = 0.0;
    result.exact = true;
    result.rung = BoundRung::kCached;
    return result;
  }
  const uint64_t key = KeyOf(i, j);
  Shard& shard = ShardOf(key);
  double floor = 0.0;
  bool have_cached_bound = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (!it->second.is_bound) {
        telemetry::CounterAdd(cache_hits_);
        result.value = it->second.value;
        result.exact = true;
        result.rung = BoundRung::kCached;
        return result;
      }
      floor = it->second.value;
      have_cached_bound = true;
    }
  }
  const EdrBoundsProfile& pa = profiles_[i];
  const EdrBoundsProfile& pb = profiles_[j];
  const uint32_t maxlen = std::max(pa.length, pb.length);
  if (maxlen == 0) {
    result.value = 0.0;
    result.exact = true;
    result.rung = BoundRung::kCached;
    return result;
  }
  result.rung = have_cached_bound ? BoundRung::kCached : BoundRung::kLength;
  result.value = floor;
  const double length_bound = ToScaled(EdrLengthLowerBound(pa, pb), maxlen);
  if (length_bound > result.value) {
    result.value = length_bound;
    result.rung = BoundRung::kLength;
  }
  if (EdrSeparated(pa, pb, config_.tolerance)) {
    result.value = StoreAnalyticExact(shard, key, ToScaled(maxlen, maxlen),
                                      lb_separation_);
    result.exact = true;
    result.rung = BoundRung::kSeparation;
    return result;
  }
  if (maxlen >= kEnvelopeMinLen) {
    const EdrEnvelopeBound env = EdrEnvelopeLowerBound(
        dataset_[i], pa, dataset_[j], pb, config_.tolerance);
    if (env.exact) {
      result.value = StoreAnalyticExact(shard, key, ToScaled(env.bound, maxlen),
                                        lb_envelope_);
      result.exact = true;
      result.rung = BoundRung::kEnvelope;
      return result;
    }
    const double envelope_bound = ToScaled(env.bound, maxlen);
    if (envelope_bound > result.value) {
      result.value = envelope_bound;
      result.rung = BoundRung::kEnvelope;
    }
  }
  return result;
}

}  // namespace wcop
