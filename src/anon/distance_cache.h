#ifndef WCOP_ANON_DISTANCE_CACHE_H_
#define WCOP_ANON_DISTANCE_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anon/types.h"
#include "common/parallel.h"
#include "distance/edr_bounds.h"
#include "traj/dataset.h"

namespace wcop {

/// The clustering's one distance lookup: the trajectory distance of a pair,
/// or proof that it exceeds a cutoff, with the computed distances of a run
/// memoized across its radius-relaxation rounds (the distance is
/// deterministic, so a recomputation would be pure waste).
///
/// Single-threaded: one clustering run owns the memo and calls it on its
/// coordinating thread only. LookupBatch's workers compute into
/// caller-indexed slots and never touch the memo.
///
/// ## The EDR cascade
///
/// For EDR, a lookup runs two O(1) certified rungs before the DP: the
/// MBR/tolerance separation certificate (when it fires the distance is
/// known, edr_scale, and answers the lookup as an analytic exact) and the
/// length bound (when it exceeds the cutoff, the bound answers the lookup);
/// only the rest run the DP kernel. No O(n+m) bound sits between them:
/// up to 64 points a sweep over both trajectories costs more than the
/// bit-parallel DP itself (DESIGN.md §9). So a returned value is
/// either the exact distance or a lower bound above the cutoff, and a
/// caller that only compares against the cutoff decides as on the exact
/// distance. A cutoff of -infinity never runs the DP (the bounds-only
/// probe); +infinity always returns the exact distance. Synchronized
/// Euclidean has no rungs: every lookup is exact.
///
/// ## Accounting
///
/// Only computed distances are memoized; bounds and analytic exacts are
/// recomputed on demand. A lookup of a pair i != j counts the event that
/// decided it: `distance.calls.<kind>` plus one RunContext::ChargeDistance
/// when the distance was computed (at most once per pair and run),
/// `distance.cache_hits` when the memo answered, and
/// `distance.early_abandoned` when a rung answered with an analytic exact
/// or with a bound above a finite cutoff, `distance.lb.length_pruned` or
/// `distance.lb.separation_pruned` naming that rung. A probe at -infinity
/// that returns only a bound decides nothing and counts nothing: the
/// caller that drops the pair on it does so through a lookup at its own
/// cutoff, which counts the abandon. i == j is 0 and counts nothing.
class PairDistanceMemo {
 public:
  /// A lookup's answer: the exact distance (`exact`), or a certified lower
  /// bound on it that exceeds the lookup's cutoff.
  struct Distance {
    double value = 0.0;
    bool exact = false;
  };

  /// `config` must be resolved: an EDR config needs edr_scale > 0 (the
  /// clustering entry points reject anything else). `expected_pairs`
  /// reserves the memo (a reservation, not a limit). The context and
  /// telemetry pointers may be null; counter handles are resolved here,
  /// never per lookup.
  PairDistanceMemo(const Dataset& dataset, const DistanceConfig& config,
                   const RunContext* context, telemetry::Telemetry* telemetry,
                   size_t expected_pairs);

  /// The distance between trajectories i and j, decided against `cutoff`
  /// (see the class comment): a value <= cutoff is the exact distance; a
  /// value > cutoff is exact or a lower bound of it.
  Distance Lookup(size_t i, size_t j, double cutoff);

  /// The exact distances of `pairs` into `values`, slot by slot, without
  /// the rungs: each pair the memo does not hold is computed in full by
  /// `par`'s workers into its slot; this thread then memoizes, charges and
  /// counts them in slot order, so values and counters do not depend on
  /// the thread count. For synchronized Euclidean (the exhaustive scan, its
  /// one caller) this is exactly what serial lookups do. Fails only when
  /// the fan-out does (a tripped `par.context`).
  Status LookupBatch(const std::vector<std::pair<size_t, size_t>>& pairs,
                     const parallel::ParallelOptions& par,
                     std::vector<double>* values);

  /// Per-trajectory bound profiles, indexed as the dataset; empty unless
  /// the distance is EDR.
  const std::vector<EdrBoundsProfile>& profiles() const { return profiles_; }

 private:
  uint64_t KeyOf(size_t i, size_t j) const {
    return i < j ? static_cast<uint64_t>(i) * n_ + j
                 : static_cast<uint64_t>(j) * n_ + i;
  }

  /// Normalized EDR op count times edr_scale, the expression
  /// ClusterDistance evaluates, so a rung's exact value has its bits.
  double ToScaled(uint32_t ops, uint32_t maxlen) const {
    return static_cast<double>(ops) / static_cast<double>(maxlen) *
           config_.edr_scale;
  }

  /// Counts a lookup a rung answered without the DP; returns `answer`.
  Distance Abandoned(telemetry::Counter* rung, Distance answer) const;

  /// Memoizes a computed distance and charges and counts its computation.
  void Memoize(uint64_t key, double value);

  const Dataset& dataset_;
  const DistanceConfig& config_;
  const RunContext* context_;
  telemetry::Counter* distance_calls_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* early_abandoned_ = nullptr;
  telemetry::Counter* lb_length_ = nullptr;
  telemetry::Counter* lb_separation_ = nullptr;
  uint64_t n_;
  std::vector<EdrBoundsProfile> profiles_;  ///< EDR only; indexed as dataset
  std::unordered_map<uint64_t, double> memo_;
};

}  // namespace wcop

#endif  // WCOP_ANON_DISTANCE_CACHE_H_
