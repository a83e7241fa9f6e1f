#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "anon/greedy_clustering.h"
#include "anon/wcop_ct.h"
#include "common/telemetry.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

WcopOptions ResolvedFor(const Dataset& d) {
  return ResolveOptions(d, WcopOptions{});
}

TEST(GreedyClusteringTest, InvariantsOnSynthetic) {
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);
  const WcopOptions options = ResolvedFor(d);
  Result<ClusteringOutcome> out =
      GreedyClustering(d, /*trash_max=*/4, options);
  ASSERT_TRUE(out.ok()) << out.status();

  std::set<size_t> seen;
  for (const AnonymityCluster& c : out->clusters) {
    // Pivot is a member.
    EXPECT_NE(std::find(c.members.begin(), c.members.end(), c.pivot),
              c.members.end());
    int max_k = 0;
    double min_delta = 1e18;
    for (size_t m : c.members) {
      EXPECT_TRUE(seen.insert(m).second) << "trajectory in two clusters";
      max_k = std::max(max_k, d[m].requirement().k);
      min_delta = std::min(min_delta, d[m].requirement().delta);
    }
    // Cluster satisfies its own k (which covers every member's k_i).
    EXPECT_GE(c.members.size(), static_cast<size_t>(c.k));
    EXPECT_GE(c.k, max_k);
    EXPECT_DOUBLE_EQ(c.delta, min_delta);
  }
  for (size_t idx : out->trash) {
    EXPECT_TRUE(seen.insert(idx).second) << "trashed and clustered";
  }
  // Full coverage: every input trajectory is clustered or trashed.
  EXPECT_EQ(seen.size(), d.size());
  EXPECT_LE(out->trash.size(), 4u);
}

TEST(GreedyClusteringTest, DeterministicForSeed) {
  const Dataset d = SmallSynthetic(30, 40);
  WcopOptions options = ResolvedFor(d);
  options.seed = 99;
  const auto a = GreedyClustering(d, 3, options);
  const auto b = GreedyClustering(d, 3, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->clusters.size(), b->clusters.size());
  for (size_t i = 0; i < a->clusters.size(); ++i) {
    EXPECT_EQ(a->clusters[i].pivot, b->clusters[i].pivot);
    EXPECT_EQ(a->clusters[i].members, b->clusters[i].members);
  }
}

TEST(GreedyClusteringTest, UnsatisfiableKFails) {
  // k greater than the dataset size can never be satisfied.
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeLineWithReq(i, i * 10.0, 0, 1, 0, 10, /*k=*/50, /*delta=*/100));
  }
  WcopOptions options = ResolvedFor(d);
  options.max_clustering_rounds = 4;
  Result<ClusteringOutcome> out = GreedyClustering(d, /*trash_max=*/0, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsatisfiable);
}

TEST(GreedyClusteringTest, UnsatisfiableToleratedViaTrash) {
  // Same dataset, but allowing everything to be trashed succeeds.
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeLineWithReq(i, i * 10.0, 0, 1, 0, 10, /*k=*/50, /*delta=*/100));
  }
  Result<ClusteringOutcome> out =
      GreedyClustering(d, /*trash_max=*/5, ResolvedFor(d));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->trash.size(), 5u);
  EXPECT_TRUE(out->clusters.empty());
}

TEST(GreedyClusteringTest, TightRadiusRelaxesUntilSolved) {
  const Dataset d = SmallSynthetic(30, 40, /*k_max=*/3);
  WcopOptions options = ResolvedFor(d);
  options.radius_max = 1e-6;  // absurdly tight: forces relaxation rounds
  options.radius_growth = 4.0;
  Result<ClusteringOutcome> out = GreedyClustering(d, 3, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->rounds, 1u);
  EXPECT_GT(out->final_radius, 1e-6);
}

TEST(GreedyClusteringTest, RejectsBadArguments) {
  const Dataset d = SmallSynthetic(10, 30);
  WcopOptions options = ResolvedFor(d);
  EXPECT_FALSE(GreedyClustering(Dataset(), 0, options).ok());
  options.radius_max = 0.0;
  EXPECT_FALSE(GreedyClustering(d, 0, options).ok());
  options = ResolvedFor(d);
  options.radius_growth = 1.0;
  EXPECT_FALSE(GreedyClustering(d, 0, options).ok());
}

TEST(GreedyClusteringTest, LeftoverJoinsOnlyCompatibleCluster) {
  // Two identical bundles of k=2 trajectories plus one leftover demanding
  // delta stricter than any cluster's current delta: must be trashed.
  Dataset d;
  d.Add(MakeLineWithReq(0, 0, 0, 1, 0, 20, 2, 100.0));
  d.Add(MakeLineWithReq(1, 0, 1, 1, 0, 20, 2, 100.0));
  d.Add(MakeLineWithReq(2, 0, 2, 1, 0, 20, 2, 100.0));
  d.Add(MakeLineWithReq(3, 0, 3, 1, 0, 20, 2, 100.0));
  // The demanding one wants delta=1 but every cluster will have delta=100;
  // since cluster.delta (100) > tau.delta (1), it cannot join — and its own
  // pivot attempt can form a cluster only if its neighbour tolerates it.
  d.Add(MakeLineWithReq(4, 0, 50.0, 1, 0, 20, 3, 1.0));
  WcopOptions options = ResolvedFor(d);
  options.seed = 3;
  Result<ClusteringOutcome> out = GreedyClustering(d, 5, options);
  ASSERT_TRUE(out.ok());
  // Trajectory 4 either anchors its own satisfying cluster (k=3, delta=1)
  // or lands in the trash; it can never ride along a delta=100 cluster
  // whose delta exceeds its own.
  for (const AnonymityCluster& c : out->clusters) {
    const bool has4 =
        std::find(c.members.begin(), c.members.end(), 4u) != c.members.end();
    if (has4) {
      EXPECT_LE(c.delta, 1.0);
      EXPECT_GE(c.members.size(), 3u);
    }
  }
}

void ExpectSameOutcome(const ClusteringOutcome& a,
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
}

TEST(GreedyClusteringTest, CascadeMatchesExhaustiveBaseline) {
  // The lower-bound cascade must be a pure accelerator: cascade-on and
  // cascade-off runs produce identical clusters, trash, and relaxation
  // history (this mirrors the CI byte-identity gate on published output).
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);
  WcopOptions on = ResolvedFor(d);
  on.distance.cascade = true;
  WcopOptions off = ResolvedFor(d);
  off.distance.cascade = false;
  const auto with_cascade = GreedyClustering(d, 4, on);
  const auto without = GreedyClustering(d, 4, off);
  ASSERT_TRUE(with_cascade.ok()) << with_cascade.status();
  ASSERT_TRUE(without.ok()) << without.status();
  ExpectSameOutcome(*with_cascade, *without);
}

TEST(GreedyClusteringTest, CascadeMatchesBaselineAcrossDistantTiles) {
  // Two bundles 200 km apart exercise the grid pre-filter (out-of-reach
  // candidates are priced at edr_scale without a probe) plus the
  // separation rung; the outcome must still match the exhaustive run.
  Dataset d;
  for (int i = 0; i < 6; ++i) {
    d.Add(MakeLineWithReq(i, 0, i * 5.0, 1, 0, 20, /*k=*/3, /*delta=*/100));
    d.Add(MakeLineWithReq(10 + i, 2.0e5, i * 5.0, 1, 0, 20, /*k=*/3,
                          /*delta=*/100));
  }
  WcopOptions on = ResolvedFor(d);
  WcopOptions off = ResolvedFor(d);
  off.distance.cascade = false;
  const auto with_cascade = GreedyClustering(d, 2, on);
  const auto without = GreedyClustering(d, 2, off);
  ASSERT_TRUE(with_cascade.ok()) << with_cascade.status();
  ASSERT_TRUE(without.ok()) << without.status();
  ExpectSameOutcome(*with_cascade, *without);
}

TEST(GreedyClusteringTest, CascadePrunesAndAbandonsOnStockConfig) {
  // Regression guard for the (previously dead) early-abandon path and the
  // cascade counters: on a stock synthetic workload the cutoff-certified
  // bounds must actually fire, and the number of exact DP computations must
  // drop strictly below the exhaustive baseline.
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);

  WcopOptions on = ResolvedFor(d);
  telemetry::Telemetry tel_on;
  on.telemetry = &tel_on;
  ASSERT_TRUE(GreedyClustering(d, 4, on).ok());
  const telemetry::MetricsSnapshot snap_on = tel_on.metrics().Snapshot();

  WcopOptions off = ResolvedFor(d);
  off.distance.cascade = false;
  telemetry::Telemetry tel_off;
  off.telemetry = &tel_off;
  ASSERT_TRUE(GreedyClustering(d, 4, off).ok());
  const telemetry::MetricsSnapshot snap_off = tel_off.metrics().Snapshot();

  EXPECT_GT(snap_on.CounterValue("distance.early_abandoned"), 0u);
  const uint64_t lb_pruned =
      snap_on.CounterValue("distance.lb.length_pruned") +
      snap_on.CounterValue("distance.lb.separation_pruned") +
      snap_on.CounterValue("distance.lb.envelope_pruned");
  EXPECT_GT(lb_pruned, 0u);
  EXPECT_LT(snap_on.CounterValue("distance.calls.edr"),
            snap_off.CounterValue("distance.calls.edr"));
}

}  // namespace
}  // namespace wcop
