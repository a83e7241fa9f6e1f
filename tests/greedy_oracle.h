#ifndef WCOP_TESTS_GREEDY_ORACLE_H_
#define WCOP_TESTS_GREEDY_ORACLE_H_

// WCOP-Clustering (Algorithm 3) and the agglomerative merge loop in their
// plainest form, the oracles of GreedyClustering and
// AgglomerativeClustering. Every pairwise distance is computed up front
// into a full matrix (EDR by edr_oracle.h's scalar DP), and the loops read
// the matrix: no memo, no lower bound, no reach index, no rank tree and no
// implicit run. They make the same Rng draws, RunContext checks and
// candidate-pair charges as the library and fail with the same
// Unsatisfiable message, so a library run under the same options and
// context must produce the same outcome. Distance charges are not
// reproduced: the oracle computes every pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "anon/agglomerative.h"
#include "anon/greedy_clustering.h"
#include "anon/types.h"
#include "common/rng.h"
#include "distance/euclidean.h"
#include "edr_oracle.h"
#include "traj/dataset.h"

namespace wcop {
namespace testing_util {

/// The distance of a and b under `config` (resolved: EDR needs
/// edr_scale > 0): EDR by the scalar DP, scaled as ClusterDistance, or the
/// synchronized Euclidean distance.
inline double OracleDistance(const Trajectory& a, const Trajectory& b,
                             const DistanceConfig& config) {
  if (config.kind == DistanceConfig::Kind::kSynchronizedEuclidean) {
    return SynchronizedEuclideanDistance(a, b);
  }
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) {
    return 0.0;
  }
  return static_cast<double>(EdrOpsScalar(a, b, config.tolerance)) /
         static_cast<double>(longest) * config.edr_scale;
}

/// Every pairwise OracleDistance under `config`.
class DistanceMatrix {
 public:
  DistanceMatrix(const Dataset& dataset, const DistanceConfig& config)
      : n_(dataset.size()), values_(n_ * n_, 0.0), read_(n_ * n_, false) {
    for (size_t i = 0; i < n_; ++i) {
      for (size_t j = i + 1; j < n_; ++j) {
        const double d = OracleDistance(dataset[i], dataset[j], config);
        values_[i * n_ + j] = d;
        values_[j * n_ + i] = d;
      }
    }
  }

  /// The distance between i and j; marks the pair read.
  double operator()(size_t i, size_t j) const {
    if (i != j) {
      read_[std::min(i, j) * n_ + std::max(i, j)] = true;
    }
    return values_[i * n_ + j];
  }

  /// The distinct pairs i != j read so far: the distances an exhaustive
  /// scan computes.
  size_t pairs_read() const {
    return static_cast<size_t>(std::count(read_.begin(), read_.end(), true));
  }

 private:
  size_t n_;
  std::vector<double> values_;
  mutable std::vector<bool> read_;
};

/// Algorithm 3 over `dist`, with GreedyClustering's options and results.
inline Result<ClusteringOutcome> OracleGreedyClustering(
    const Dataset& dataset, const DistanceMatrix& dist, size_t trash_max,
    const WcopOptions& options) {
  const size_t n = dataset.size();
  const RunContext* context = options.run_context;
  Rng rng(options.seed);
  double radius_max = options.radius_max;
  size_t best_trash = std::numeric_limits<size_t>::max();
  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    std::vector<size_t> active(n);  // ascending
    for (size_t i = 0; i < n; ++i) {
      active[i] = i;
    }
    std::vector<bool> clustered(n, false);
    std::vector<AnonymityCluster> clusters;
    std::vector<size_t> pivots;
    bool degraded = false;
    std::string degraded_reason;
    const auto deactivate = [&](size_t i) {
      const auto it = std::find(active.begin(), active.end(), i);
      if (it != active.end()) {
        active.erase(it);
      }
    };

    while (!active.empty()) {
      if (Status s = CheckRunContext(context); !s.ok()) {
        if (!options.allow_partial_results) {
          return s;
        }
        degraded = true;
        degraded_reason = s.ToString();
        break;
      }
      size_t pivot = active[0];
      if (options.pivot_policy == WcopOptions::PivotPolicy::kFarthestFirst &&
          !pivots.empty()) {
        double best_score = -1.0;
        for (size_t a : active) {
          double nearest = std::numeric_limits<double>::infinity();
          for (size_t p : pivots) {
            nearest = std::min(nearest, dist(p, a));
          }
          if (nearest > best_score) {
            best_score = nearest;
            pivot = a;
          }
        }
      } else {
        pivot = active[rng.UniformIndex(active.size())];
      }
      pivots.push_back(pivot);

      std::vector<std::pair<double, size_t>> pool;
      for (size_t c = 0; c < n; ++c) {
        if (c != pivot && !clustered[c]) {
          pool.emplace_back(dist(pivot, c), c);
        }
      }
      std::sort(pool.begin(), pool.end());
      if (context != nullptr) {
        context->ChargeCandidatePairs(pool.size());
      }
      AnonymityCluster cluster;
      cluster.pivot = pivot;
      cluster.members = {pivot};
      cluster.k = dataset[pivot].requirement().k;
      cluster.delta = dataset[pivot].requirement().delta;
      bool grown = true;
      for (size_t next = 0;
           static_cast<size_t>(cluster.k) > cluster.members.size(); ++next) {
        if (next == pool.size()) {
          grown = false;
          break;
        }
        const size_t nn = pool[next].second;
        cluster.members.push_back(nn);
        cluster.k = std::max(cluster.k, dataset[nn].requirement().k);
        cluster.delta = std::min(cluster.delta, dataset[nn].requirement().delta);
      }
      double radius = 0.0;
      for (size_t m : cluster.members) {
        radius = std::max(radius, dist(pivot, m));
      }
      if (grown && radius <= radius_max) {
        for (size_t m : cluster.members) {
          clustered[m] = true;
          deactivate(m);
        }
        clusters.push_back(std::move(cluster));
      } else {
        deactivate(pivot);
      }
    }

    std::vector<size_t> trash;
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
        trash.push_back(idx);
        continue;
      }
      const Requirement& req = dataset[idx].requirement();
      AnonymityCluster* nearest = nullptr;
      double nearest_dist = std::numeric_limits<double>::infinity();
      for (AnonymityCluster& cluster : clusters) {
        const double d = dist(cluster.pivot, idx);
        if (cluster.members.size() + 1 >= static_cast<size_t>(req.k) &&
            cluster.delta <= req.delta && d <= radius_max &&
            d < nearest_dist) {
          nearest_dist = d;
          nearest = &cluster;
        }
      }
      if (nearest != nullptr) {
        nearest->members.push_back(idx);
        nearest->k = std::max(nearest->k, req.k);
      } else {
        trash.push_back(idx);
      }
    }

    ClusteringOutcome out;
    out.rounds = round + 1;
    out.final_radius = radius_max;
    if (degraded || trash.size() <= trash_max) {
      out.clusters = std::move(clusters);
      out.trash = std::move(trash);
      out.degraded = degraded;
      out.degraded_reason = std::move(degraded_reason);
      return out;
    }
    best_trash = std::min(best_trash, trash.size());
    radius_max *= options.radius_growth;
  }
  return Status::Unsatisfiable(
      "clustering could not meet trash_max=" + std::to_string(trash_max) +
      " within " + std::to_string(options.max_clustering_rounds) +
      " radius relaxations (best trash: " + std::to_string(best_trash) + ")");
}

/// The agglomerative merge loop over `dist`, with AgglomerativeClustering's
/// options and results.
inline Result<ClusteringOutcome> OracleAgglomerativeClustering(
    const Dataset& dataset, const DistanceMatrix& dist, size_t trash_max,
    const WcopOptions& options) {
  struct Working {
    std::vector<size_t> members;
    int k = 0;
    double delta = 0.0;
    size_t medoid = 0;
    bool alive = true;
    bool trashed = false;
    size_t Deficit() const {
      return members.size() >= static_cast<size_t>(k)
                 ? 0
                 : static_cast<size_t>(k) - members.size();
    }
  };
  const size_t n = dataset.size();
  const RunContext* context = options.run_context;
  double radius_max = options.radius_max;
  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    std::vector<Working> clusters(n);
    for (size_t i = 0; i < n; ++i) {
      clusters[i].members = {i};
      clusters[i].k = dataset[i].requirement().k;
      clusters[i].delta = dataset[i].requirement().delta;
      clusters[i].medoid = i;
    }
    bool degraded = false;
    std::string degraded_reason;
    for (;;) {
      if (Status s = CheckRunContext(context); !s.ok()) {
        if (!options.allow_partial_results) {
          return s;
        }
        degraded = true;
        degraded_reason = s.ToString();
        for (Working& c : clusters) {
          if (c.alive && c.Deficit() > 0) {
            c.alive = false;
            c.trashed = true;
          }
        }
        break;
      }
      size_t worst = n;
      for (size_t c = 0; c < n; ++c) {
        if (clusters[c].alive && clusters[c].Deficit() > 0 &&
            (worst == n || clusters[c].Deficit() > clusters[worst].Deficit())) {
          worst = c;
        }
      }
      if (worst == n) {
        break;
      }
      size_t partner = n;
      double partner_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < n; ++c) {
        if (c == worst || !clusters[c].alive) {
          continue;
        }
        const double d = dist(clusters[worst].medoid, clusters[c].medoid);
        if (d <= radius_max && d < partner_dist) {
          partner_dist = d;
          partner = c;
        }
      }
      if (partner == n) {
        clusters[worst].alive = false;
        clusters[worst].trashed = true;
        continue;
      }
      Working& dst = clusters[worst];
      Working& src = clusters[partner];
      dst.members.insert(dst.members.end(), src.members.begin(),
                         src.members.end());
      dst.k = std::max(dst.k, src.k);
      dst.delta = std::min(dst.delta, src.delta);
      src.alive = false;
      src.members.clear();
      // The medoid minimizes the summed distance to the members (the first
      // such member wins); one or two members keep the first.
      dst.medoid = dst.members.front();
      if (dst.members.size() > 2) {
        double best_sum = std::numeric_limits<double>::infinity();
        for (size_t candidate : dst.members) {
          double sum = 0.0;
          for (size_t other : dst.members) {
            sum += dist(candidate, other);
          }
          if (sum < best_sum) {
            best_sum = sum;
            dst.medoid = candidate;
          }
        }
      }
    }

    ClusteringOutcome out;
    for (const Working& c : clusters) {
      if (c.trashed) {
        out.trash.insert(out.trash.end(), c.members.begin(), c.members.end());
      } else if (c.alive && !c.members.empty()) {
        AnonymityCluster cluster;
        cluster.pivot = c.medoid;
        cluster.members = c.members;
        cluster.k = c.k;
        cluster.delta = c.delta;
        out.clusters.push_back(std::move(cluster));
      }
    }
    out.rounds = round + 1;
    out.final_radius = radius_max;
    out.degraded = degraded;
    out.degraded_reason = std::move(degraded_reason);
    if (degraded || out.trash.size() <= trash_max) {
      return out;
    }
    radius_max *= options.radius_growth;
  }
  return Status::Unsatisfiable(
      "agglomerative clustering could not meet trash_max=" +
      std::to_string(trash_max) + " within " +
      std::to_string(options.max_clustering_rounds) + " radius relaxations");
}

/// A clustering outcome and the candidate pairs its RunContext charged.
struct ClusteringRun {
  Result<ClusteringOutcome> outcome;
  uint64_t candidate_pairs = 0;
};

using Clusterer =
    std::function<Result<ClusteringOutcome>(const WcopOptions& options)>;

/// Runs `cluster` under a fresh RunContext holding `budget`.
inline ClusteringRun RunUnderContext(const Clusterer& cluster,
                                     WcopOptions options,
                                     ResourceBudget budget = {}) {
  RunContext context;
  context.set_budget(budget);
  options.run_context = &context;
  ClusteringRun run{cluster(options), 0};
  run.candidate_pairs = context.candidate_pairs();
  return run;
}

inline void ExpectSameOutcome(const ClusteringOutcome& a,
                              const ClusteringOutcome& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].pivot, b.clusters[i].pivot) << "cluster " << i;
    EXPECT_EQ(a.clusters[i].members, b.clusters[i].members) << "cluster " << i;
    EXPECT_EQ(a.clusters[i].k, b.clusters[i].k) << "cluster " << i;
    EXPECT_DOUBLE_EQ(a.clusters[i].delta, b.clusters[i].delta)
        << "cluster " << i;
  }
  EXPECT_EQ(a.trash, b.trash);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_DOUBLE_EQ(a.final_radius, b.final_radius);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.degraded_reason, b.degraded_reason);
}

inline void ExpectSameRun(const ClusteringRun& expected,
                          const ClusteringRun& got, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(expected.outcome.ok(), got.outcome.ok()) << got.outcome.status();
  if (expected.outcome.ok()) {
    ExpectSameOutcome(*expected.outcome, *got.outcome);
  } else {
    EXPECT_EQ(expected.outcome.status(), got.outcome.status());
  }
  EXPECT_EQ(expected.candidate_pairs, got.candidate_pairs);
}

/// Checks GreedyClustering against OracleGreedyClustering on `dataset`
/// under `options` (resolved) and a context holding `budget`: under both
/// pivot policies, at threads 1 and 4. Returns the oracle's runs, random
/// pivots first.
inline std::vector<ClusteringRun> ExpectGreedyMatchesOracle(
    const Dataset& dataset, size_t trash_max, const WcopOptions& options,
    ResourceBudget budget = {}) {
  const DistanceMatrix dist(dataset, options.distance);
  std::vector<ClusteringRun> oracles;
  for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                            WcopOptions::PivotPolicy::kFarthestFirst}) {
    WcopOptions run = options;
    run.pivot_policy = policy;
    oracles.push_back(RunUnderContext(
        [&](const WcopOptions& o) {
          return OracleGreedyClustering(dataset, dist, trash_max, o);
        },
        run, budget));
    for (const int threads : {1, 4}) {
      run.threads = threads;
      ExpectSameRun(oracles.back(),
                    RunUnderContext(
                        [&](const WcopOptions& o) {
                          return GreedyClustering(dataset, trash_max, o);
                        },
                        run, budget),
                    std::string(policy == WcopOptions::PivotPolicy::kRandom
                                    ? "random"
                                    : "farthest") +
                        " pivots, threads=" + std::to_string(threads));
    }
  }
  return oracles;
}

}  // namespace testing_util
}  // namespace wcop

#endif  // WCOP_TESTS_GREEDY_ORACLE_H_
