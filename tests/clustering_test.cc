#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "anon/greedy_clustering.h"
#include "anon/wcop_ct.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLine;
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
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.degraded_reason, b.degraded_reason);
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
  // Two bundles 200 km apart exercise the reach index (out-of-reach
  // candidates form the implicit run at edr_scale, with no probe) plus the
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

// ---------------------------------------------------------------------------
// Differential oracle: the cascade scan (reach index, implicit out-of-reach
// run, rank-tree active set) against the exhaustive scan, over adversarial
// corpora, at 1 and 4 threads and under both pivot policies.
// ---------------------------------------------------------------------------

struct Corpus {
  std::string name;
  Dataset dataset;
  WcopOptions options;  ///< resolved; cascade/threads/policy set per run
  size_t trash_max = 0;
};

/// Short random walks in a `side`-metre square, one day of departures.
Trajectory RandomWalk(Rng* rng, int64_t id, size_t points, double x0,
                      double y0, double side) {
  std::vector<Point> pts;
  double x = x0 + rng->UniformReal(0, side);
  double y = y0 + rng->UniformReal(0, side);
  double t = rng->UniformReal(0, 86400);
  for (size_t i = 0; i < points; ++i) {
    pts.emplace_back(x, y, t);
    x += rng->UniformReal(-60, 60);
    y += rng->UniformReal(-60, 60);
    t += 60.0;
  }
  return Trajectory(id, std::move(pts));
}

/// Draws k ~ U{2..k_max}, delta ~ U[10, 250] m from `seed` and resolves
/// the options for the dataset.
Corpus MakeCorpus(std::string name, Dataset dataset, size_t trash_max,
                  int k_max, uint64_t seed) {
  Rng rng(seed);
  AssignUniformRequirements(&dataset, 2, k_max, 10.0, 250.0, &rng);
  Corpus c;
  c.name = std::move(name);
  c.options = ResolveOptions(dataset, WcopOptions{});
  c.options.seed = seed;
  c.dataset = std::move(dataset);
  c.trash_max = trash_max;
  return c;
}

std::vector<Corpus> AdversarialCorpora() {
  std::vector<Corpus> corpora;
  Rng rng(2016);
  {
    // Co-located clones: whole groups at distance 0 from each other.
    Dataset d;
    for (int g = 0; g < 6; ++g) {
      const Trajectory proto = RandomWalk(&rng, 0, 6, 0, 0, 3000);
      for (int c = 0; c < 5; ++c) {
        d.Add(Trajectory(g * 5 + c, proto.points()));
      }
    }
    for (int i = 0; i < 10; ++i) {
      d.Add(RandomWalk(&rng, 100 + i, 6, 0, 0, 3000));
    }
    corpora.push_back(MakeCorpus("clones", std::move(d), 4, 5, 1));
  }
  {
    // One city-spanning trajectory among short local ones.
    Dataset d;
    for (int i = 0; i < 45; ++i) {
      d.Add(RandomWalk(&rng, i, 5, 0, 0, 4000));
    }
    d.Add(MakeLine(99, -4.0e4, -4.0e4, 400.0, 400.0, 200, 60.0, 0.0));
    corpora.push_back(MakeCorpus("city_spanning", std::move(d), 5, 4, 2));
  }
  {
    // Far-apart tiles: every cross-tile pair is separated.
    Dataset d;
    for (int i = 0; i < 48; ++i) {
      d.Add(RandomWalk(&rng, i, 6, 2.0e5 * (i % 4), 2.0e5 * (i % 3), 2000));
    }
    corpora.push_back(MakeCorpus("far_tiles", std::move(d), 6, 5, 3));
  }
  {
    // One-point trajectories (zero-extent boxes, some stacked), plus two
    // empty ones: an empty pivot reaches exactly the other empties.
    Dataset d;
    for (int i = 0; i < 30; ++i) {
      const double x = i % 3 == 0 ? 500.0 : rng.UniformReal(0, 5000);
      d.Add(Trajectory(i, std::vector<Point>{Point(x, x, 100.0 * (i % 4))}));
    }
    d.Add(Trajectory(30, std::vector<Point>{}));
    d.Add(Trajectory(31, std::vector<Point>{}));
    corpora.push_back(MakeCorpus("one_point", std::move(d), 4, 3, 4));
  }
  {
    // Overlapping boxes, no matchable pair: stationary at one spot with
    // interleaved timestamps 11 s apart under dt = 5 s. Their exact
    // distance is edr_scale, tying with the out-of-reach tiles listed
    // after them, so growth must merge the two runs by index.
    Dataset d;
    for (int j = 0; j < 10; ++j) {
      std::vector<Point> pts;
      for (int i = 0; i < 6; ++i) {
        pts.emplace_back(0.0, 0.0, 200.0 * i + 11.0 * j);
      }
      d.Add(Trajectory(j, std::move(pts)));
    }
    for (int i = 0; i < 10; ++i) {
      d.Add(MakeLine(10 + i, 1.0e5 * (i + 1), 0, 1, 0, 6, 200.0));
    }
    Corpus c = MakeCorpus("unmatched_overlap", std::move(d), 4, 4, 8);
    c.options.distance.tolerance.dx = 10.0;
    c.options.distance.tolerance.dy = 10.0;
    c.options.distance.tolerance.dt = 5.0;
    corpora.push_back(std::move(c));
  }
  {
    // Infinite dt: time never separates.
    Dataset d;
    for (int i = 0; i < 40; ++i) {
      d.Add(RandomWalk(&rng, i, 7, 0, 0, 6000));
    }
    Corpus c = MakeCorpus("infinite_dt", std::move(d), 4, 5, 5);
    c.options.distance.tolerance.dt = std::numeric_limits<double>::infinity();
    corpora.push_back(std::move(c));
  }
  {
    // k_i > |D| on a few travellers: they end in the trash (trash_max
    // allows it here), and Unsatisfiable when trash_max does not.
    Dataset d;
    for (int i = 0; i < 20; ++i) {
      d.Add(RandomWalk(&rng, i, 6, 0, 0, 2000));
    }
    Corpus trash = MakeCorpus("k_over_n_trash", std::move(d), 20, 4, 6);
    for (size_t i = 0; i < 3; ++i) {
      Trajectory& t = trash.dataset.mutable_trajectories()[i * 5];
      t.set_requirement(Requirement{50, t.requirement().delta});
    }
    Corpus unsat = trash;
    unsat.name = "k_over_n_unsat";
    unsat.trash_max = 0;
    unsat.options.max_clustering_rounds = 3;
    corpora.push_back(std::move(trash));
    corpora.push_back(std::move(unsat));
  }
  {
    // A tight radius_max: at least three relaxation rounds.
    Corpus c = MakeCorpus("tight_radius", SmallSynthetic(40, 12, 4), 3, 4, 7);
    c.options.radius_max = 1e-3 * c.options.distance.edr_scale;
    c.options.radius_growth = 3.0;
    corpora.push_back(std::move(c));
  }
  return corpora;
}

/// One GreedyClustering run under a fresh RunContext.
struct GreedyRun {
  Result<ClusteringOutcome> outcome;
  uint64_t candidate_pairs = 0;
};

GreedyRun RunGreedy(const Dataset& d, size_t trash_max, WcopOptions options,
              bool cascade, int threads, ResourceBudget budget = {}) {
  RunContext context;
  context.set_budget(budget);
  options.distance.cascade = cascade;
  options.threads = threads;
  options.run_context = &context;
  GreedyRun run{GreedyClustering(d, trash_max, options), 0};
  run.candidate_pairs = context.candidate_pairs();
  return run;
}

void ExpectSameRun(const GreedyRun& expected, const GreedyRun& got,
                   const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(expected.outcome.ok(), got.outcome.ok())
      << got.outcome.status();
  if (expected.outcome.ok()) {
    ExpectSameOutcome(*expected.outcome, *got.outcome);
  } else {
    EXPECT_EQ(expected.outcome.status(), got.outcome.status());
  }
  EXPECT_EQ(expected.candidate_pairs, got.candidate_pairs);
}

TEST(GreedyClusteringTest, CascadeMatchesExhaustiveOnAdversarialCorpora) {
  for (const Corpus& c : AdversarialCorpora()) {
    for (auto policy : {WcopOptions::PivotPolicy::kRandom,
                        WcopOptions::PivotPolicy::kFarthestFirst}) {
      WcopOptions options = c.options;
      options.pivot_policy = policy;
      const std::string base =
          c.name + (policy == WcopOptions::PivotPolicy::kRandom
                        ? "/random"
                        : "/farthest");
      const GreedyRun oracle = RunGreedy(c.dataset, c.trash_max, options,
                                   /*cascade=*/false, /*threads=*/1);
      for (int threads : {1, 4}) {
        for (bool cascade : {true, false}) {
          ExpectSameRun(oracle,
                        RunGreedy(c.dataset, c.trash_max, options, cascade,
                                  threads),
                        base + (cascade ? "/cascade" : "/exhaustive") +
                            "/threads=" + std::to_string(threads));
        }
      }
      if (c.name == "k_over_n_unsat") {
        EXPECT_EQ(oracle.outcome.status().code(), StatusCode::kUnsatisfiable);
      } else {
        ASSERT_TRUE(oracle.outcome.ok()) << base << ": "
                                         << oracle.outcome.status();
      }
      if (c.name == "tight_radius") {
        EXPECT_GE(oracle.outcome->rounds, 3u) << base;
      }
      if (c.name == "k_over_n_trash") {
        EXPECT_GE(oracle.outcome->trash.size(), 3u) << base;
      }
    }
  }
}

TEST(GreedyClusteringTest, RandomPivotsFollowTheAscendingActiveList) {
  // Algorithm 3 draws each pivot uniformly from the active trajectories in
  // ascending index order. Far-apart twin pairs (k = 2) make every pivot's
  // cluster predictable: a twin pivot takes its twin, a lone pivot is
  // rejected (its nearest candidate lies beyond radius_max) and only it
  // leaves the active set. The accepted pivots must be exactly those of a
  // plain ascending list driven by the same random stream.
  Dataset d;
  std::vector<size_t> twin;  // own index for a lone trajectory
  for (int i = 0; i < 60; ++i) {
    const size_t first = d.size();
    const int copies = i % 7 == 3 ? 1 : 2;
    for (int c = 0; c < copies; ++c) {
      d.Add(MakeLineWithReq(static_cast<int64_t>(d.size()), 5.0e4 * i, 0, 1,
                            0, 5, /*k=*/2, /*delta=*/100));
      twin.push_back(copies == 1 ? first : first + 1 - c);
    }
  }
  WcopOptions options = ResolvedFor(d);
  options.radius_max = 0.5 * options.distance.edr_scale;
  options.seed = 5;
  size_t lone_count = 0;
  for (size_t i = 0; i < twin.size(); ++i) {
    lone_count += twin[i] == i ? 1 : 0;
  }

  std::vector<size_t> active(d.size());
  for (size_t i = 0; i < active.size(); ++i) {
    active[i] = i;
  }
  std::vector<size_t> expected_pivots;
  Rng rng(options.seed);
  while (!active.empty()) {
    const size_t pivot = active[rng.UniformIndex(active.size())];
    active.erase(std::find(active.begin(), active.end(), pivot));
    if (twin[pivot] != pivot) {
      expected_pivots.push_back(pivot);
      active.erase(std::find(active.begin(), active.end(), twin[pivot]));
    }
  }
  for (bool cascade : {true, false}) {
    const GreedyRun run = RunGreedy(d, lone_count, options, cascade, 1);
    ASSERT_TRUE(run.outcome.ok()) << run.outcome.status();
    std::vector<size_t> pivots;
    for (const AnonymityCluster& c : run.outcome->clusters) {
      pivots.push_back(c.pivot);
    }
    EXPECT_EQ(pivots, expected_pivots) << "cascade " << cascade;
    EXPECT_EQ(run.outcome->trash.size(), lone_count);
  }
}

TEST(GreedyClusteringTest, TwoEmptyTrajectoriesClusterAtDistanceZero) {
  // Two empty trajectories are at distance 0 (not edr_scale), so a k = 2
  // pivot takes the other one even under a radius far below edr_scale.
  Dataset d;
  d.Add(Trajectory(1, std::vector<Point>{}));
  d.Add(Trajectory(2, std::vector<Point>{}));
  for (Trajectory& t : d.mutable_trajectories()) {
    t.set_requirement(Requirement{2, 50.0});
  }
  WcopOptions options;
  options.radius_max = 1.0;
  options.distance.edr_scale = 100.0;
  options.distance.tolerance.dx = 10.0;
  options.distance.tolerance.dy = 10.0;
  options.distance.tolerance.dt = 10.0;
  const GreedyRun oracle = RunGreedy(d, 0, options, /*cascade=*/false, 1);
  ASSERT_TRUE(oracle.outcome.ok()) << oracle.outcome.status();
  ASSERT_EQ(oracle.outcome->clusters.size(), 1u);
  EXPECT_EQ(oracle.outcome->clusters[0].members.size(), 2u);
  for (int threads : {1, 4}) {
    ExpectSameRun(oracle, RunGreedy(d, 0, options, /*cascade=*/true, threads),
                  "threads=" + std::to_string(threads));
  }
}

TEST(GreedyClusteringTest, CandidatePairBudgetDegradesAtTheSameCluster) {
  // The cascade charges the same candidate pairs per pivot as the
  // exhaustive scan, so a pair budget trips at the same cluster attempt and
  // both modes publish the same partial outcome.
  const Dataset d = SmallSynthetic(60, 20, /*k_max=*/4);
  WcopOptions options = ResolvedFor(d);
  options.allow_partial_results = true;
  const GreedyRun full = RunGreedy(d, 6, options, /*cascade=*/false, 1);
  ASSERT_TRUE(full.outcome.ok()) << full.outcome.status();
  ResourceBudget budget;
  budget.max_candidate_pairs = full.candidate_pairs / 3;
  const GreedyRun oracle = RunGreedy(d, 6, options, /*cascade=*/false, 1, budget);
  ASSERT_TRUE(oracle.outcome.ok()) << oracle.outcome.status();
  ASSERT_TRUE(oracle.outcome->degraded);
  EXPECT_FALSE(oracle.outcome->clusters.empty());
  for (int threads : {1, 4}) {
    ExpectSameRun(oracle,
                  RunGreedy(d, 6, options, /*cascade=*/true, threads, budget),
                  "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace wcop
