#include "anon/greedy_clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "anon/distance_cache.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "distance/edr_bounds.h"

namespace wcop {

namespace {

/// Bounded max-heap of the smallest `capacity` exact distances seen during
/// one pivot scan. Once full, Top() is a schedule-independent best-so-far
/// threshold: any candidate whose lower bound exceeds it already has
/// `capacity` exactly-known candidates ranked strictly ahead of it, so it
/// can never be among the taken nearest neighbours.
class TopKThreshold {
 public:
  void Reset(size_t capacity) {
    capacity_ = capacity;
    heap_.clear();
  }

  void Push(double value) {
    if (capacity_ == 0) {
      return;
    }
    if (heap_.size() < capacity_) {
      heap_.push_back(value);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (value < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = value;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  bool Full() const { return capacity_ > 0 && heap_.size() == capacity_; }
  double Top() const { return heap_.front(); }

 private:
  size_t capacity_ = 0;
  std::vector<double> heap_;
};

/// Order-statistic view of the active flags: a Fenwick tree of 0/1 counts.
/// Kth(r) is the r-th active index in ascending order — the element an
/// ascending active list holds at position r — and Remove costs O(log n)
/// instead of the list's O(n) erase.
class ActiveRank {
 public:
  void Reset(size_t n) {
    tree_.assign(n + 1, 0);
    for (size_t i = 1; i <= n; ++i) {
      tree_[i] = i & (~i + 1);  // all set: node i counts lowbit(i) flags
    }
    count_ = n;
    top_step_ = 1;
    while (top_step_ * 2 <= n) {
      top_step_ *= 2;
    }
  }

  void Remove(size_t index) {
    for (size_t i = index + 1; i < tree_.size(); i += i & (~i + 1)) {
      --tree_[i];
    }
    --count_;
  }

  /// Requires rank < count().
  size_t Kth(size_t rank) const {
    size_t pos = 0;  // largest prefix length holding at most `rank` flags
    for (size_t step = top_step_; step > 0; step >>= 1) {
      if (pos + step < tree_.size() && tree_[pos + step] <= rank) {
        pos += step;
        rank -= tree_[pos];
      }
    }
    return pos;
  }

  size_t count() const { return count_; }

 private:
  std::vector<size_t> tree_;
  size_t count_ = 0;
  size_t top_step_ = 1;
};

/// Smallest unclustered index >= i: union-find over "next" links with path
/// compression. Within a round the clustered set only grows, so a link is
/// never undone. Index n is the end sentinel.
class NextUnclustered {
 public:
  void Reset(size_t n) {
    next_.resize(n + 1);
    for (size_t i = 0; i <= n; ++i) {
      next_[i] = i;
    }
  }

  void Remove(size_t index) { next_[index] = index + 1; }

  size_t Find(size_t index) {
    size_t root = index;
    while (next_[root] != root) {
      root = next_[root];
    }
    while (next_[index] != root) {
      const size_t up = next_[index];
      next_[index] = root;
      index = up;
    }
    return root;
  }

 private:
  std::vector<size_t> next_;
};

}  // namespace

Result<ClusteringOutcome> GreedyClustering(const Dataset& dataset,
                                           size_t trash_max,
                                           const WcopOptions& options) {
  const size_t n = dataset.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot cluster an empty dataset");
  }
  if (options.radius_max <= 0.0) {
    return Status::InvalidArgument("radius_max must be positive");
  }
  if (options.radius_growth <= 1.0) {
    return Status::InvalidArgument("radius_growth must exceed 1");
  }

  const RunContext* context = options.run_context;
  telemetry::Telemetry* tel = options.telemetry;
  WCOP_TRACE_SPAN(tel, "cluster/greedy");
  // Counter handles resolved once up front; null when telemetry is off.
  telemetry::Counter* attempts = nullptr;
  telemetry::Counter* accepted = nullptr;
  telemetry::Counter* rejected_radius = nullptr;
  telemetry::Counter* rejected_exhausted = nullptr;
  telemetry::Counter* leftover_assigned = nullptr;
  telemetry::Counter* leftover_trashed = nullptr;
  telemetry::Counter* rounds_counter = nullptr;
  telemetry::Histogram* cluster_size = nullptr;
  if (tel != nullptr) {
    attempts = tel->metrics().GetCounter("cluster.attempts");
    accepted = tel->metrics().GetCounter("cluster.accepted");
    rejected_radius = tel->metrics().GetCounter("cluster.rejected.radius");
    rejected_exhausted =
        tel->metrics().GetCounter("cluster.rejected.exhausted");
    leftover_assigned = tel->metrics().GetCounter("cluster.leftover.assigned");
    leftover_trashed = tel->metrics().GetCounter("cluster.leftover.trashed");
    rounds_counter = tel->metrics().GetCounter("cluster.rounds");
    cluster_size = tel->metrics().GetHistogram("cluster.size");
  }
  // Memoizes symmetric pairwise distances across radius-relaxation rounds
  // (the distance function is deterministic, so recomputation is pure
  // waste). Sized for the pools the first round will scan; the cache only
  // ever holds distinct pairs, so cap at the full pair count.
  const size_t expected_pairs =
      std::min(n * (n - 1) / 2, n * size_t{64});
  ShardedPairDistanceCache distances(dataset, options.distance, context, tel,
                                     expected_pairs);
  // Filter-and-refine scaffolding (EDR cascade only — see DESIGN.md
  // "Distance engine: filter-and-refine"). A pivot can match a point only
  // with the candidates whose profile it is not EdrSeparated from; the
  // reach index returns exactly those. Every other candidate's normalized
  // EDR is exactly 1.0 (the all-substitution alignment), so it is priced
  // at edr_scale with zero per-pair work and never even materialized (see
  // the growth loop below). K_global caps how many nearest neighbours any
  // cluster can ever take (cluster.k is the max member k), so the
  // (K_global - 1) smallest exact distances of a scan bound everything a
  // pivot can still accept.
  const bool cascade = distances.cascade_active();
  const double edr_scale = options.distance.edr_scale;
  telemetry::Counter* prefiltered_counter = nullptr;
  telemetry::Counter* range_queries = nullptr;
  telemetry::Counter* boxes_tested = nullptr;
  if (tel != nullptr) {
    prefiltered_counter =
        tel->metrics().GetCounter("distance.candidates.prefiltered");
    if (cascade) {
      // One reach query per pivot; "candidates scanned" counts the
      // trajectory boxes it tests.
      range_queries = tel->metrics().GetCounter("grid.range_queries");
      boxes_tested = tel->metrics().GetCounter("grid.candidates_scanned");
    }
  }
  size_t top_needed = 0;
  std::optional<EdrReachIndex> reach_index;
  // The reach set of an empty pivot: two empty trajectories are at
  // distance 0, while a non-empty one is at edr_scale.
  std::vector<size_t> empty_trajectories;
  if (cascade) {
    int k_global = 2;
    for (const Trajectory& t : dataset.trajectories()) {
      k_global = std::max(k_global, t.requirement().k);
    }
    top_needed = static_cast<size_t>(k_global - 1);
    reach_index.emplace(distances.profiles());
    for (size_t i = 0; i < n; ++i) {
      if (dataset[i].empty()) {
        empty_trajectories.push_back(i);
      }
    }
  }
  // Scratch reused across pivot scans.
  std::vector<size_t> candidates;   // exhaustive path only
  std::vector<size_t> reach;        // cascade path only
  std::vector<size_t> active_list;  // farthest-first only
  std::vector<std::pair<double, size_t>> pool;
  struct RefineEntry {
    double bound;
    size_t index;
    ShardedPairDistanceCache::BoundRung rung;
  };
  std::vector<RefineEntry> refine;
  std::vector<double> scratch_values;
  TopKThreshold threshold;
  ActiveRank active_rank;
  NextUnclustered next_unclustered;
  // Pure distance evaluations of the exhaustive scan, farthest-first and
  // the leftover phase fan out over the pool; every ordering and
  // tie-breaking decision below stays on this thread, so the outcome is
  // identical for any thread count (see DESIGN.md "Parallel execution").
  // Budget charges happen inside the cache; trips are observed at the same
  // per-cluster-attempt checks as the serial path, never mid-batch.
  parallel::ParallelOptions par;
  par.threads = options.threads;
  par.grain = 1;  // one EDR evaluation is orders of magnitude above overhead
  par.telemetry = tel;
  Rng rng(options.seed);
  double radius_max = options.radius_max;

  ClusteringOutcome best;
  size_t best_trash = std::numeric_limits<size_t>::max();

  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    WCOP_FAILPOINT("cluster.greedy_round");
    WCOP_TRACE_SPAN(tel, "cluster/greedy_round");
    telemetry::CounterAdd(rounds_counter);
    std::vector<bool> active(n, true);
    std::vector<bool> clustered(n, false);
    active_rank.Reset(n);
    next_unclustered.Reset(n);
    size_t unclustered = n;
    std::vector<AnonymityCluster> clusters;

    // Set when the run context trips mid-round and allow_partial_results
    // turns the trip into degradation: no further clusters are formed and
    // every unclustered trajectory is suppressed.
    bool degraded = false;
    std::string degraded_reason;

    // --- Phase 1: pivot selection and cluster growth (lines 3-19). ---
    std::vector<size_t> chosen_pivots;
    while (active_rank.count() > 0) {
      // Cooperative yield point: one check per cluster attempt.
      if (Status s = CheckRunContext(context); !s.ok()) {
        if (!options.allow_partial_results) {
          return s;
        }
        degraded = true;
        degraded_reason = s.ToString();
        break;
      }
      // Pivot selection: random (Algorithm 3) or farthest-first (the W4M
      // heuristic, exposed as an ablation).
      size_t pivot;
      if (options.pivot_policy == WcopOptions::PivotPolicy::kFarthestFirst &&
          !chosen_pivots.empty()) {
        // Batch the candidate scores (pure, exact distances); the argmax
        // with its first-wins tie-break runs serially below.
        active_list.clear();
        for (size_t i = 0; i < n; ++i) {
          if (active[i]) {
            active_list.push_back(i);
          }
        }
        scratch_values.assign(active_list.size(), 0.0);
        WCOP_TRACE_SPAN(tel, "cluster/farthest_scan");
        Status batch = parallel::ParallelFor(
            active_list.size(),
            [&](size_t t) {
              double nearest_pivot = std::numeric_limits<double>::infinity();
              for (size_t p : chosen_pivots) {
                nearest_pivot =
                    std::min(nearest_pivot, distances.Get(p, active_list[t]));
              }
              scratch_values[t] = nearest_pivot;
            },
            par);
        if (!batch.ok()) {
          return batch;
        }
        pivot = active_list[0];
        double best_score = -1.0;
        for (size_t t = 0; t < active_list.size(); ++t) {
          if (scratch_values[t] > best_score) {
            best_score = scratch_values[t];
            pivot = active_list[t];
          }
        }
      } else {
        pivot = active_rank.Kth(rng.UniformIndex(active_rank.count()));
      }
      chosen_pivots.push_back(pivot);
      WCOP_TRACE_SPAN(tel, "cluster/grow");
      telemetry::CounterAdd(attempts);

      AnonymityCluster cluster;
      cluster.pivot = pivot;
      cluster.members.push_back(pivot);
      cluster.k = dataset[pivot].requirement().k;
      cluster.delta = dataset[pivot].requirement().delta;

      // Distances from the pivot to every unclustered candidate, nearest
      // first (the pivot's NN pool of line 8 is D - Clustered). The batch
      // computes pure distances into per-candidate slots; candidates whose
      // length lower bound already exceeds radius_max keep the bound — they
      // sort after every in-radius candidate and can only appear in
      // clusters the radius test rejects anyway, so the accepted clusters
      // are exactly those of a full computation.
      pool.clear();
      // Cascade only: the number of candidates outside the reach set, all
      // at exactly edr_scale and left out of the pool.
      size_t implicit = 0;
      if (!cascade) {
        candidates.clear();
        for (size_t cand = 0; cand < n; ++cand) {
          if (cand == pivot || clustered[cand]) {
            continue;
          }
          candidates.push_back(cand);
        }
        scratch_values.assign(candidates.size(), 0.0);
        WCOP_TRACE_SPAN(tel, "cluster/pivot_scan");
        Status batch = parallel::ParallelFor(
            candidates.size(),
            [&](size_t t) {
              scratch_values[t] =
                  distances.GetWithCutoff(pivot, candidates[t], radius_max);
            },
            par);
        if (!batch.ok()) {
          return batch;
        }
        for (size_t t = 0; t < candidates.size(); ++t) {
          pool.emplace_back(scratch_values[t], candidates[t]);
        }
      } else {
        WCOP_TRACE_SPAN(tel, "cluster/pivot_scan");
        threshold.Reset(top_needed);
        reach.clear();
        telemetry::CounterAdd(range_queries);
        if (dataset[pivot].empty()) {
          reach = empty_trajectories;
        } else {
          telemetry::CounterAdd(
              boxes_tested,
              reach_index->Query(distances.profiles()[pivot],
                                 options.distance.tolerance, &reach));
        }
        reach.erase(std::remove_if(reach.begin(), reach.end(),
                                   [&](size_t c) {
                                     return c == pivot || clustered[c];
                                   }),
                    reach.end());
        std::sort(reach.begin(), reach.end());
        implicit = unclustered - 1 - reach.size();
        telemetry::CounterAdd(prefiltered_counter, implicit);
        // The top-K threshold keeps the K smallest values pushed, so K
        // copies of edr_scale stand in for the whole implicit run.
        for (size_t t = 0; t < std::min(implicit, top_needed); ++t) {
          threshold.Push(edr_scale);
        }
        // Cheap bound probes (cache / length / separation / envelope) on
        // the reach set, inline: each costs far less than a pool hand-off.
        refine.clear();
        for (size_t cand : reach) {
          const auto probe = distances.CheapProbe(pivot, cand);
          if (probe.exact) {
            pool.emplace_back(probe.value, cand);
            threshold.Push(probe.value);
          } else {
            refine.push_back(RefineEntry{probe.value, cand, probe.rung});
          }
        }
        std::sort(refine.begin(), refine.end(),
                  [](const RefineEntry& a, const RefineEntry& b) {
                    return a.bound != b.bound ? a.bound < b.bound
                                              : a.index < b.index;
                  });
        // Cheapest-first refinement, inline, in growing blocks: the cutoff
        // (best-so-far top-K threshold, capped by radius_max) is frozen per
        // block and tightened only between blocks, which fixes the set of
        // pairs that reach the DP and every counter event. The reach set is
        // small, so no block is worth a pool hand-off. A candidate pruned
        // here has top_needed exactly-known candidates strictly ahead of it
        // (or is outside the acceptance radius), so the exact distance could
        // not have changed any decision; its certified bound enters the pool
        // instead.
        size_t pos = 0;
        size_t block = 32;
        while (pos < refine.size()) {
          const double cutoff =
              threshold.Full() ? std::min(radius_max, threshold.Top())
                               : radius_max;
          if (refine[pos].bound > cutoff) {
            for (size_t t = pos; t < refine.size(); ++t) {
              pool.emplace_back(refine[t].bound, refine[t].index);
              distances.CountBoundPrune(refine[t].rung);
            }
            break;
          }
          const size_t end = std::min(pos + block, refine.size());
          size_t split = end;
          while (split > pos && refine[split - 1].bound > cutoff) {
            --split;
          }
          for (size_t t = pos; t < split; ++t) {
            const double d =
                distances.GetWithCutoff(pivot, refine[t].index, cutoff);
            pool.emplace_back(d, refine[t].index);
            if (d <= cutoff) {
              threshold.Push(d);
            }
          }
          pos = split;
          block = std::min(block * 2, size_t{1024});
        }
      }
      std::sort(pool.begin(), pool.end());
      if (context != nullptr) {
        context->ChargeCandidatePairs(unclustered - 1);
      }

      // Growth, nearest first. In the cascade the sorted pool is merged by
      // (value, index) with the implicit run: every unclustered candidate
      // outside the reach set, all at exactly edr_scale, enumerated in
      // ascending index order — the order a fully materialized pool sorts
      // them in.
      size_t implicit_from = 0;
      size_t reach_pos = 0;
      const auto next_implicit = [&]() -> size_t {
        for (;;) {
          const size_t c = next_unclustered.Find(implicit_from);
          if (c == n) {
            return n;
          }
          implicit_from = c + 1;
          while (reach_pos < reach.size() && reach[reach_pos] < c) {
            ++reach_pos;
          }
          if (c != pivot &&
              (reach_pos == reach.size() || reach[reach_pos] != c)) {
            return c;
          }
        }
      };
      size_t implicit_head = implicit > 0 ? next_implicit() : n;
      size_t next_candidate = 0;
      bool grown = true;
      while (static_cast<size_t>(cluster.k) > cluster.members.size()) {
        size_t nn;
        if (next_candidate < pool.size() &&
            (implicit_head == n ||
             pool[next_candidate] < std::make_pair(edr_scale, implicit_head))) {
          nn = pool[next_candidate].second;
          ++next_candidate;
        } else if (implicit_head < n) {
          nn = implicit_head;
          implicit_head = next_implicit();
        } else {
          grown = false;  // not enough unclustered trajectories remain
          break;
        }
        cluster.members.push_back(nn);
        cluster.k = std::max(cluster.k, dataset[nn].requirement().k);
        cluster.delta = std::min(cluster.delta, dataset[nn].requirement().delta);
      }

      // Acceptance test (line 13): pivot-to-member radius within bounds.
      // A cutoff lookup suffices — a lower bound only comes back when it
      // exceeds radius_max, in which case the true radius does too.
      double radius = 0.0;
      for (size_t m : cluster.members) {
        radius = std::max(radius,
                          distances.GetWithCutoff(pivot, m, radius_max));
      }
      if (grown && radius <= radius_max) {
        telemetry::CounterAdd(accepted);
        if (cluster_size != nullptr) {
          cluster_size->Record(cluster.members.size());
        }
        for (size_t m : cluster.members) {
          clustered[m] = true;
          next_unclustered.Remove(m);
          if (active[m]) {
            active[m] = false;
            active_rank.Remove(m);
          }
        }
        unclustered -= cluster.members.size();
        clusters.push_back(std::move(cluster));
      } else {
        // Reject: only the pivot leaves the active set (line 18).
        telemetry::CounterAdd(grown ? rejected_radius : rejected_exhausted);
        active[pivot] = false;
        active_rank.Remove(pivot);
      }
    }

    // --- Phase 2: leftover assignment (lines 20-26). ---
    std::vector<size_t> trash;
    std::vector<size_t> eligible;
    for (size_t idx = 0; idx < n; ++idx) {
      if (clustered[idx]) {
        continue;
      }
      if (!degraded) {
        if (Status s = CheckRunContext(context); !s.ok()) {
          if (!options.allow_partial_results) {
            return s;
          }
          degraded = true;
          degraded_reason = s.ToString();
        }
      }
      if (degraded) {
        // Degradation: leftovers are suppressed without spending further
        // distance computations.
        telemetry::CounterAdd(leftover_trashed);
        trash.push_back(idx);
        continue;
      }
      const Requirement& req = dataset[idx].requirement();
      // Eligibility (cheap, metadata-only) on the coordinator; the eligible
      // pivot distances are batched. The nearest-compatible selection keeps
      // the serial first-wins tie-break over the cluster order.
      eligible.clear();
      for (size_t c = 0; c < clusters.size(); ++c) {
        const AnonymityCluster& cluster = clusters[c];
        // Eligibility: the cluster (including tau itself) satisfies tau's k,
        // and tau's delta tolerance is no stricter than the cluster's delta.
        if (cluster.members.size() + 1 < static_cast<size_t>(req.k)) {
          continue;
        }
        if (cluster.delta > req.delta) {
          continue;
        }
        eligible.push_back(c);
      }
      double best_dist = std::numeric_limits<double>::infinity();
      AnonymityCluster* best_cluster = nullptr;
      if (!cascade) {
        scratch_values.assign(eligible.size(), 0.0);
        Status batch = parallel::ParallelFor(
            eligible.size(),
            [&](size_t t) {
              scratch_values[t] = distances.GetWithCutoff(
                  clusters[eligible[t]].pivot, idx, radius_max);
            },
            par);
        if (!batch.ok()) {
          return batch;
        }
        for (size_t t = 0; t < eligible.size(); ++t) {
          const double d = scratch_values[t];
          if (d <= radius_max && d < best_dist) {
            best_dist = d;
            best_cluster = &clusters[eligible[t]];
          }
        }
      } else {
        // Serial best-so-far scan in cluster order: the running best
        // tightens the cutoff, and a probe bound above it certifies the
        // cluster cannot win (the selection takes strictly smaller
        // distances, so ties keep the first cluster exactly as the
        // exhaustive scan does).
        for (size_t c : eligible) {
          const double cutoff = std::min(radius_max, best_dist);
          const auto probe = distances.CheapProbe(clusters[c].pivot, idx);
          double d;
          if (probe.exact) {
            d = probe.value;
          } else if (probe.value > cutoff) {
            distances.CountBoundPrune(probe.rung);
            continue;
          } else {
            d = distances.GetWithCutoff(clusters[c].pivot, idx, cutoff);
          }
          if (d <= radius_max && d < best_dist) {
            best_dist = d;
            best_cluster = &clusters[c];
          }
        }
      }
      if (best_cluster != nullptr) {
        telemetry::CounterAdd(leftover_assigned);
        best_cluster->members.push_back(idx);
        best_cluster->k = std::max(best_cluster->k, req.k);
      } else {
        telemetry::CounterAdd(leftover_trashed);
        trash.push_back(idx);
      }
    }

    if (degraded) {
      // The trip ends the run here: later rounds would only spend more of
      // the exhausted budget. The clusters formed so far are complete
      // anonymity sets; everything else is trash (possibly > trash_max).
      ClusteringOutcome out;
      out.clusters = std::move(clusters);
      out.trash = std::move(trash);
      out.rounds = round + 1;
      out.final_radius = radius_max;
      out.degraded = true;
      out.degraded_reason = std::move(degraded_reason);
      return out;
    }

    if (trash.size() < best_trash) {
      best_trash = trash.size();
      best.clusters = clusters;
      best.trash = trash;
      best.rounds = round + 1;
      best.final_radius = radius_max;
    }
    if (trash.size() <= trash_max) {
      ClusteringOutcome out;
      out.clusters = std::move(clusters);
      out.trash = std::move(trash);
      out.rounds = round + 1;
      out.final_radius = radius_max;
      return out;
    }
    radius_max *= options.radius_growth;  // line 27: increase(radius_max)
  }

  return Status::Unsatisfiable(
      "clustering could not meet trash_max=" + std::to_string(trash_max) +
      " within " + std::to_string(options.max_clustering_rounds) +
      " radius relaxations (best trash: " + std::to_string(best_trash) + ")");
}

}  // namespace wcop
