#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "anon/agglomerative.h"
#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "greedy_oracle.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

TEST(AgglomerativeTest, InvariantsMatchGreedyContract) {
  const Dataset d = SmallSynthetic(40, 45, /*k_max=*/5);
  const WcopOptions options = ResolveOptions(d, WcopOptions{});
  Result<ClusteringOutcome> out = AgglomerativeClustering(d, 4, options);
  ASSERT_TRUE(out.ok()) << out.status();

  std::set<size_t> seen;
  for (const AnonymityCluster& c : out->clusters) {
    EXPECT_NE(std::find(c.members.begin(), c.members.end(), c.pivot),
              c.members.end());
    int max_k = 0;
    double min_delta = 1e18;
    for (size_t m : c.members) {
      EXPECT_TRUE(seen.insert(m).second);
      max_k = std::max(max_k, d[m].requirement().k);
      min_delta = std::min(min_delta, d[m].requirement().delta);
    }
    EXPECT_GE(c.members.size(), static_cast<size_t>(c.k));
    EXPECT_EQ(c.k, max_k);
    EXPECT_DOUBLE_EQ(c.delta, min_delta);
  }
  for (size_t idx : out->trash) {
    EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), d.size());
  EXPECT_LE(out->trash.size(), 4u);
}

TEST(AgglomerativeTest, EndToEndThroughWcopCtPassesVerifier) {
  const Dataset d = SmallSynthetic(35, 45, /*k_max=*/5);
  WcopOptions options;
  options.clustering_algo = WcopOptions::ClusteringAlgo::kAgglomerative;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const VerificationReport report = VerifyAnonymity(d, *result);
  EXPECT_TRUE(report.ok) << (report.messages.empty()
                                 ? "no messages"
                                 : report.messages.front());
}

TEST(AgglomerativeTest, DeterministicNoRandomness) {
  // The agglomerative pass has no random pivot: two runs agree regardless
  // of the seed field.
  const Dataset d = SmallSynthetic(30, 40);
  WcopOptions a = ResolveOptions(d, WcopOptions{});
  WcopOptions b = a;
  a.seed = 1;
  b.seed = 999;
  const auto ra = AgglomerativeClustering(d, 3, a);
  const auto rb = AgglomerativeClustering(d, 3, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->clusters.size(), rb->clusters.size());
  for (size_t i = 0; i < ra->clusters.size(); ++i) {
    EXPECT_EQ(ra->clusters[i].members, rb->clusters[i].members);
  }
}

TEST(AgglomerativeTest, UnsatisfiableKFails) {
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeLineWithReq(i, i * 10.0, 0, 1, 0, 10, /*k=*/50, /*delta=*/100));
  }
  WcopOptions options = ResolveOptions(d, WcopOptions{});
  options.max_clustering_rounds = 4;
  Result<ClusteringOutcome> out = AgglomerativeClustering(d, 0, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsatisfiable);
}

TEST(AgglomerativeTest, SingletonsSurviveWhenAlreadySatisfied) {
  // Every trajectory demands k=1: no merging needed at all.
  Dataset d;
  for (int i = 0; i < 6; ++i) {
    d.Add(MakeLineWithReq(i, i * 1000.0, 0, 1, 0, 10, /*k=*/1, /*delta=*/50));
  }
  Result<ClusteringOutcome> out =
      AgglomerativeClustering(d, 0, ResolveOptions(d, WcopOptions{}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->clusters.size(), 6u);
  EXPECT_TRUE(out->trash.empty());
}

TEST(AgglomerativeTest, CascadeMatchesOracle) {
  // The medoid partner search runs through the memo's lower-bound cascade;
  // it must reproduce the merge sequence of the plain loop on exact
  // distances. The merge loop reads neither the thread count nor the pivot
  // policy; both are varied to pin that.
  const Dataset d = SmallSynthetic(40, 45, /*k_max=*/5);
  WcopOptions options = ResolveOptions(d, WcopOptions{});
  const testing_util::DistanceMatrix dist(d, options.distance);
  const testing_util::ClusteringRun oracle = testing_util::RunUnderContext(
      [&](const WcopOptions& o) {
        return testing_util::OracleAgglomerativeClustering(d, dist, 4, o);
      },
      options);
  ASSERT_TRUE(oracle.outcome.ok()) << oracle.outcome.status();
  EXPECT_FALSE(oracle.outcome->clusters.empty());
  for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                            WcopOptions::PivotPolicy::kFarthestFirst}) {
    options.pivot_policy = policy;
    for (const int threads : {1, 4}) {
      options.threads = threads;
      testing_util::ExpectSameRun(
          oracle,
          testing_util::RunUnderContext(
              [&](const WcopOptions& o) {
                return AgglomerativeClustering(d, 4, o);
              },
              options),
          "threads=" + std::to_string(threads));
    }
  }
}

TEST(AgglomerativeTest, RejectsBadArguments) {
  const Dataset d = SmallSynthetic(10, 30);
  WcopOptions options = ResolveOptions(d, WcopOptions{});
  EXPECT_FALSE(AgglomerativeClustering(Dataset(), 0, options).ok());
  options.radius_max = 0.0;
  EXPECT_FALSE(AgglomerativeClustering(d, 0, options).ok());
  options = ResolveOptions(d, WcopOptions{});
  options.distance.edr_scale = 0.0;  // unresolved
  EXPECT_EQ(AgglomerativeClustering(d, 0, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wcop
