#ifndef WCOP_ANON_DISTANCE_CACHE_H_
#define WCOP_ANON_DISTANCE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "anon/types.h"
#include "distance/edr_bounds.h"
#include "traj/dataset.h"

namespace wcop {

/// Mutex-striped memo of symmetric pairwise trajectory distances, shared by
/// the coordinating thread and the ParallelFor workers of the clustering hot
/// path (the distance function is deterministic, so recomputation across
/// radius-relaxation rounds is pure waste).
///
/// Keys are the existing symmetric pair key (min(i,j) * n + max(i,j)); each
/// of the kShards stripes holds its own map + mutex, `reserve`d up front
/// from the expected pair count so the hot loop never rehashes under a lock.
///
/// ## Filter-and-refine (DistanceConfig::cascade, EDR only)
///
/// When the cascade is active, a cutoff lookup runs cheap certified lower
/// bounds before the DP: the length bound (O(1)), the MBR/tolerance
/// separation certificate (O(1), and when it fires the distance is *known*
/// — max length, stored as an analytic exact), and the envelope bound
/// (O(n+m); zero matchable points again yields an analytic exact). Only
/// survivors reach the exact DP kernel. Every returned value is either the
/// exact distance or a lower bound > cutoff, so decisions made by comparing
/// against the cutoff are identical to full computation. `CheapProbe`
/// exposes the bound cascade alone (never runs the DP) for callers that
/// order candidates cheapest-first.
///
/// Accounting is *exact* and thread-schedule-independent: every stored
/// DP-computed distance charges RunContext::ChargeDistance and the per-kind
/// `distance.calls.*` counter exactly once (when two threads race on the
/// same uncached pair, only the insertion winner charges; the loser counts
/// as the cache hit it would have been under serial execution); analytic
/// exacts (separation / empty-envelope certificates) charge neither the
/// budget nor `distance.calls.*` — no DP table was filled. Lookups
/// satisfied from the map count `distance.cache_hits`.
/// `distance.early_abandoned` totals every lookup the cascade resolved
/// short of the exact DP — cutoff-certified bound serves *and* analytic
/// certificates — with `distance.lb.*_pruned` as the per-rung breakdown
/// (all winner-only, so the totals are thread-schedule-independent).
///
/// Early-abandon entries: bound entries are flagged, never mistaken for an
/// exact distance. A later lookup whose cutoff the stored bound still
/// exceeds is served from the cache; any other access upgrades the entry
/// (bound entries racing an exact store lose; racing bounds keep the max —
/// both are certified).
class ShardedPairDistanceCache {
 public:
  static constexpr size_t kShards = 16;

  /// Which rung of the cascade produced a CheapProbe value.
  enum class BoundRung { kCached, kLength, kSeparation, kEnvelope };

  /// Result of CheapProbe: either an exact distance (cached or analytic) or
  /// the best certified lower bound the cheap rungs could prove.
  struct ProbeResult {
    double value = 0.0;
    bool exact = false;
    BoundRung rung = BoundRung::kLength;
  };

  /// `expected_pairs` sizes the stripes up front (pass the anticipated
  /// candidate-pool volume; it is a reservation, not a limit). The context
  /// and telemetry pointers may be null; counter handles are resolved once
  /// here, never in the per-lookup path.
  ShardedPairDistanceCache(const Dataset& dataset,
                           const DistanceConfig& config,
                           const RunContext* context,
                           telemetry::Telemetry* telemetry,
                           size_t expected_pairs);

  /// Exact distance between trajectories i and j. Safe to call concurrently;
  /// concurrent calls for the *same uncached* pair both compute but charge
  /// once (see class comment).
  double Get(size_t i, size_t j);

  /// Distance usable for comparisons against `cutoff`: the result is either
  /// the exact distance or a lower bound that exceeds `cutoff` (so
  /// `result <= cutoff` implies the result is exact, and `result > cutoff`
  /// implies the exact distance also exceeds the cutoff).
  double GetWithCutoff(size_t i, size_t j, double cutoff);

  /// Runs only the cheap rungs (cache, length, separation, envelope) —
  /// never the DP. When the result is not exact, `value` is a certified
  /// lower bound; a caller that discards the pair on it must report the
  /// decision through CountBoundPrune so the abandon accounting stays
  /// exact. Requires cascade_active().
  ProbeResult CheapProbe(size_t i, size_t j);

  /// Records that the caller discarded a pair using a (non-exact)
  /// CheapProbe value: counts `distance.early_abandoned` plus the rung's
  /// `distance.lb.*_pruned` counter (a kCached rung counts a cache hit —
  /// the stored bound made the decision, as in a cutoff lookup served from
  /// the cache).
  void CountBoundPrune(BoundRung rung);

  /// True when the filter-and-refine cascade is in effect (EDR distance,
  /// positive scale, DistanceConfig::cascade set).
  bool cascade_active() const { return cascade_; }

  /// Per-trajectory bound profiles, indexed as the dataset; empty unless
  /// cascade_active().
  const std::vector<EdrBoundsProfile>& profiles() const { return profiles_; }

  /// Number of full (DP) distance computations stored so far.
  uint64_t computed() const {
    return computed_.load(std::memory_order_relaxed);
  }

  /// Number of lookups resolved short of the exact DP so far (bound
  /// serves plus analytic certificates; superset of analytic()).
  uint64_t abandoned() const {
    return abandoned_.load(std::memory_order_relaxed);
  }

  /// Number of analytically certified exact distances stored without a DP
  /// run (separation / empty-envelope certificates).
  uint64_t analytic() const {
    return analytic_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    double value = 0.0;
    bool is_bound = false;  ///< value is a certified lower bound, not exact
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;
  };

  uint64_t KeyOf(size_t i, size_t j) const {
    return i < j ? static_cast<uint64_t>(i) * n_ + j
                 : static_cast<uint64_t>(j) * n_ + i;
  }
  Shard& ShardOf(uint64_t key) {
    // SplitMix64-style mix so consecutive keys spread across stripes.
    uint64_t z = key + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return shards_[(z ^ (z >> 31)) % kShards];
  }

  /// Normalized-and-scaled distance for an op count — the exact expression
  /// the legacy path evaluates, so cascade and non-cascade values agree
  /// bit-for-bit.
  double ToScaled(uint32_t ops, uint32_t maxlen) const {
    return static_cast<double>(ops) / static_cast<double>(maxlen) *
           config_.edr_scale;
  }

  /// Stores an exact value computed by the DP, charging accounting only
  /// when this call wins the insertion/upgrade race. Returns the value to
  /// report (the already stored exact value when the race was lost).
  double StoreExact(Shard& shard, uint64_t key, double value);

  /// Stores an analytically certified exact value (no DP ran): the winner
  /// counts `rung_counter` instead of budget/`distance.calls.*`.
  double StoreAnalyticExact(Shard& shard, uint64_t key, double value,
                            telemetry::Counter* rung_counter);

  /// Stores a certified lower bound and counts the abandon under
  /// `rung_counter`. Racing exact entries win; racing bounds keep the max.
  double StoreBound(Shard& shard, uint64_t key, double value,
                    telemetry::Counter* rung_counter);

  const Dataset& dataset_;
  const DistanceConfig& config_;
  const RunContext* context_;
  telemetry::Counter* distance_calls_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* early_abandoned_ = nullptr;
  telemetry::Counter* lb_length_ = nullptr;
  telemetry::Counter* lb_separation_ = nullptr;
  telemetry::Counter* lb_envelope_ = nullptr;
  uint64_t n_;
  bool cascade_ = false;
  std::vector<EdrBoundsProfile> profiles_;  ///< cascade only; indexed as dataset
  Shard shards_[kShards];
  std::atomic<uint64_t> computed_{0};
  std::atomic<uint64_t> abandoned_{0};
  std::atomic<uint64_t> analytic_{0};
};

}  // namespace wcop

#endif  // WCOP_ANON_DISTANCE_CACHE_H_
