#include "common/run_context.h"

#include <gtest/gtest.h>

#include <chrono>

#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "anon/wcop_nv.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::SmallSynthetic;

// ---------------------------------------------------------------------------
// Unit semantics of the RunContext primitives.
// ---------------------------------------------------------------------------

TEST(RunContextTest, DefaultContextIsUnbounded) {
  RunContext context;
  EXPECT_FALSE(context.has_deadline());
  EXPECT_FALSE(context.deadline_exceeded());
  EXPECT_FALSE(context.cancelled());
  EXPECT_FALSE(context.budget_exhausted());
  EXPECT_TRUE(context.Check().ok());
  EXPECT_TRUE(CheckRunContext(&context).ok());
  EXPECT_TRUE(CheckRunContext(nullptr).ok());
}

TEST(RunContextTest, ExpiredDeadlineTrips) {
  RunContext context;
  context.set_deadline(RunContext::Clock::now() -
                       std::chrono::milliseconds(1));
  EXPECT_TRUE(context.deadline_exceeded());
  Status s = context.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;

  context.clear_deadline();
  EXPECT_FALSE(context.has_deadline());
  EXPECT_TRUE(context.Check().ok());
}

TEST(RunContextTest, FutureDeadlineDoesNotTrip) {
  RunContext context;
  context.set_deadline_after(std::chrono::hours(1));
  EXPECT_TRUE(context.has_deadline());
  EXPECT_FALSE(context.deadline_exceeded());
  EXPECT_TRUE(context.Check().ok());
}

TEST(RunContextTest, CancellationTokenSharesStateAcrossCopies) {
  CancellationToken token;
  CancellationToken copy = token;
  EXPECT_FALSE(copy.cancellation_requested());
  token.RequestCancellation();
  EXPECT_TRUE(copy.cancellation_requested());

  RunContext context;
  context.set_cancellation_token(copy);
  EXPECT_TRUE(context.cancelled());
  Status s = context.Check();
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
}

TEST(RunContextTest, BudgetChargesAndTrips) {
  RunContext context;
  ResourceBudget budget;
  budget.max_distance_computations = 10;
  context.set_budget(budget);

  context.ChargeDistance(10);
  EXPECT_EQ(context.distance_computations(), 10u);
  EXPECT_FALSE(context.budget_exhausted());  // at the cap is still fine
  EXPECT_TRUE(context.Check().ok());

  context.ChargeDistance();
  EXPECT_TRUE(context.budget_exhausted());
  Status s = context.Check();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
}

TEST(RunContextTest, CandidatePairBudgetTrips) {
  RunContext context;
  ResourceBudget budget;
  budget.max_candidate_pairs = 5;
  context.set_budget(budget);
  context.ChargeCandidatePairs(6);
  EXPECT_EQ(context.candidate_pairs(), 6u);
  EXPECT_EQ(context.Check().code(), StatusCode::kResourceExhausted);
}

TEST(RunContextTest, CancellationOutranksDeadlineAndBudget) {
  RunContext context;
  context.set_deadline(RunContext::Clock::now() -
                       std::chrono::milliseconds(1));
  ResourceBudget budget;
  budget.max_distance_computations = 1;
  context.set_budget(budget);
  context.ChargeDistance(2);
  CancellationToken token;
  token.RequestCancellation();
  context.set_cancellation_token(token);

  EXPECT_EQ(context.Check().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// End-to-end: deadline through RunWcopCt (the ISSUE acceptance scenario).
// ---------------------------------------------------------------------------

TEST(RunContextTest, WcopCtDeadlineWithoutPartialResultsFails) {
  const Dataset d = SmallSynthetic(500, 30);
  RunContext context;
  context.set_deadline_after(std::chrono::milliseconds(1));
  WcopOptions options;
  options.run_context = &context;
  options.allow_partial_results = false;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
}

TEST(RunContextTest, WcopCtDeadlineWithPartialResultsDegrades) {
  const Dataset d = SmallSynthetic(500, 30);
  RunContext context;
  context.set_deadline_after(std::chrono::milliseconds(1));
  WcopOptions options;
  options.run_context = &context;
  options.allow_partial_results = true;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->report.degraded);
  EXPECT_FALSE(result->report.degraded_reason.empty());
  // Published + suppressed must still account for every input trajectory.
  EXPECT_EQ(result->sanitized.size() + result->trashed_ids.size(), d.size());
  // The partial result keeps the full anonymity guarantee for everything it
  // publishes: the independent verifier must accept it.
  VerificationReport verification = VerifyAnonymity(d, *result);
  EXPECT_TRUE(verification.ok)
      << (verification.messages.empty() ? "" : verification.messages.front());
  EXPECT_EQ(verification.violations, 0u);
}

/// Half the exact DP computations of an unbounded WCOP-CT run on `d`: the
/// cascade leaves only a few pairs to the DP, so a budget sized for every
/// pair would never trip.
uint64_t HalfTheDistanceComputations(const Dataset& d) {
  RunContext context;
  WcopOptions options;
  options.run_context = &context;
  EXPECT_TRUE(RunWcopCt(d, options).ok());
  return context.distance_computations() / 2;
}

TEST(RunContextTest, WcopCtDistanceBudgetDegradesDeterministically) {
  // A distance budget (unlike a wall-clock deadline) trips at the exact same
  // point on every run, giving a deterministic partial result with some
  // clusters already formed.
  const Dataset d = SmallSynthetic(60, 30);
  const uint64_t cap = HalfTheDistanceComputations(d);
  ASSERT_GT(cap, 0u);
  RunContext context;
  ResourceBudget budget;
  budget.max_distance_computations = cap;
  context.set_budget(budget);
  WcopOptions options;
  options.run_context = &context;
  options.allow_partial_results = true;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->report.degraded);
  EXPECT_GT(context.distance_computations(), cap);
  EXPECT_EQ(result->sanitized.size() + result->trashed_ids.size(), d.size());
  // The budget admits a few full cluster pools before tripping, and the
  // tripped context must not re-suppress them during translation: a partial
  // result actually publishes the clusters formed before the trip.
  EXPECT_GT(result->report.num_clusters, 0u);
  EXPECT_GT(result->sanitized.size(), 0u);
  VerificationReport verification = VerifyAnonymity(d, *result);
  EXPECT_TRUE(verification.ok)
      << (verification.messages.empty() ? "" : verification.messages.front());
}

TEST(RunContextTest, WcopCtBudgetWithoutPartialResultsFails) {
  const Dataset d = SmallSynthetic(60, 30);
  RunContext context;
  ResourceBudget budget;
  budget.max_distance_computations = HalfTheDistanceComputations(d);
  context.set_budget(budget);
  WcopOptions options;
  options.run_context = &context;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(RunContextTest, WcopCtCancellationFails) {
  const Dataset d = SmallSynthetic(40, 30);
  CancellationToken token;
  token.RequestCancellation();  // cancelled before the run even starts
  RunContext context;
  context.set_cancellation_token(token);
  WcopOptions options;
  options.run_context = &context;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << result.status();
}

TEST(RunContextTest, AgglomerativeDeadlineDegrades) {
  // 600 trips: with the lower-bound cascade a smaller run can finish inside
  // the 1 ms deadline, leaving nothing to degrade.
  const Dataset d = SmallSynthetic(600, 30);
  RunContext context;
  context.set_deadline_after(std::chrono::milliseconds(1));
  WcopOptions options;
  options.clustering_algo = WcopOptions::ClusteringAlgo::kAgglomerative;
  options.run_context = &context;
  options.allow_partial_results = true;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->report.degraded);
  VerificationReport verification = VerifyAnonymity(d, *result);
  EXPECT_TRUE(verification.ok)
      << (verification.messages.empty() ? "" : verification.messages.front());
}

TEST(RunContextTest, W4mHonoursCancellation) {
  const Dataset d = SmallSynthetic(30, 30);
  CancellationToken token;
  token.RequestCancellation();
  RunContext context;
  context.set_cancellation_token(token);
  WcopOptions options;
  options.run_context = &context;
  Result<AnonymizationResult> result = RunW4m(d, 3, 200.0, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << result.status();
}

// Untripped contexts must not change results: same dataset, same seed, the
// run with a generous context matches the run without one.
TEST(RunContextTest, UntrippedContextIsTransparent) {
  const Dataset d = SmallSynthetic(40, 30);
  WcopOptions plain;
  Result<AnonymizationResult> baseline = RunWcopCt(d, plain);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  RunContext context;
  context.set_deadline_after(std::chrono::hours(2));
  ResourceBudget budget;
  budget.max_distance_computations = 100000000;
  context.set_budget(budget);
  WcopOptions bounded = plain;
  bounded.run_context = &context;
  Result<AnonymizationResult> guarded = RunWcopCt(d, bounded);
  ASSERT_TRUE(guarded.ok()) << guarded.status();

  EXPECT_FALSE(guarded->report.degraded);
  EXPECT_EQ(guarded->sanitized.size(), baseline->sanitized.size());
  EXPECT_EQ(guarded->trashed_ids.size(), baseline->trashed_ids.size());
  EXPECT_EQ(guarded->report.num_clusters, baseline->report.num_clusters);
  EXPECT_GT(context.distance_computations(), 0u);  // charging happened
}

}  // namespace
}  // namespace wcop
