#include "anon/checkpoint.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "anon/wcop_b.h"
#include "common/failpoint.h"
#include "common/snapshot.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

void ExpectTrajectoriesIdentical(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.object_id(), b.object_id());
  EXPECT_EQ(a.parent_id(), b.parent_id());
  EXPECT_EQ(a.requirement().k, b.requirement().k);
  EXPECT_EQ(a.requirement().delta, b.requirement().delta);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise double equality: resume must be exact, not approximate.
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << i;
    EXPECT_EQ(a.points()[i].t, b.points()[i].t) << i;
  }
}

void ExpectDatasetsIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectTrajectoriesIdentical(a[i], b[i]);
  }
}

// Replaces the token `offset` places after the first `keyword` token of a
// checkpoint payload with `value`.
std::string ReplaceTokenAfter(const std::string& payload,
                              const std::string& keyword, size_t offset,
                              const std::string& value) {
  std::vector<std::pair<size_t, size_t>> tokens;  // (start, length)
  for (size_t i = 0; i < payload.size();) {
    if (std::isspace(static_cast<unsigned char>(payload[i]))) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < payload.size() &&
           !std::isspace(static_cast<unsigned char>(payload[i]))) {
      ++i;
    }
    tokens.emplace_back(start, i - start);
  }
  for (size_t t = 0; t + offset < tokens.size(); ++t) {
    if (payload.compare(tokens[t].first, tokens[t].second, keyword) == 0) {
      std::string out = payload;
      out.replace(tokens[t + offset].first, tokens[t + offset].second, value);
      return out;
    }
  }
  ADD_FAILURE() << "no '" << keyword << "' token in the payload";
  return payload;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("checkpoint_test_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Codec round-trips.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, WcopBCheckpointRoundTrips) {
  WcopBCheckpoint original;
  original.fingerprint = 123456789;
  original.next_edit_size = 6;
  original.terminal = true;
  original.bound_satisfied = false;
  original.final_edit_size = 5;
  WcopBRound round;
  round.edit_size = 5;
  round.ttd = 0.1 + 0.2;  // not exactly 0.3 — must survive verbatim
  round.editing_distortion = 0.7;
  round.total_distortion = 17.95;
  round.num_clusters = 4;
  round.trashed = 1;
  original.rounds.push_back(round);
  Trajectory t = MakeLineWithReq(3, 1.0, 2.0, 0.5, -0.25, 3, 2, 100.0);
  original.anonymization.sanitized = Dataset({t});
  original.anonymization.trashed_ids = {8, -1};
  AnonymityCluster cluster;
  cluster.pivot = 0;
  cluster.k = 2;
  cluster.delta = 100.0;
  cluster.members = {0, 1, 2};
  original.anonymization.clusters.push_back(cluster);
  original.anonymization.report.ttd = 17.25;
  original.anonymization.report.omega = 3.5;
  original.anonymization.report.degraded = true;
  original.anonymization.report.degraded_reason =
      "deadline exceeded: newline \n and spaces ok";
  original.counters = {{"wcop_b.rounds", 5}, {"odd name with spaces", 1}};

  Result<WcopBCheckpoint> decoded =
      DecodeWcopBCheckpoint(EncodeWcopBCheckpoint(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->fingerprint, original.fingerprint);
  EXPECT_EQ(decoded->next_edit_size, original.next_edit_size);
  EXPECT_EQ(decoded->terminal, original.terminal);
  EXPECT_EQ(decoded->bound_satisfied, original.bound_satisfied);
  EXPECT_EQ(decoded->final_edit_size, original.final_edit_size);
  ASSERT_EQ(decoded->rounds.size(), 1u);
  EXPECT_EQ(decoded->rounds[0].edit_size, round.edit_size);
  EXPECT_EQ(decoded->rounds[0].ttd, round.ttd);
  EXPECT_EQ(decoded->rounds[0].total_distortion, round.total_distortion);
  ExpectDatasetsIdentical(decoded->anonymization.sanitized,
                          original.anonymization.sanitized);
  EXPECT_EQ(decoded->anonymization.trashed_ids,
            original.anonymization.trashed_ids);
  ASSERT_EQ(decoded->anonymization.clusters.size(), 1u);
  EXPECT_EQ(decoded->anonymization.clusters[0].members, cluster.members);
  EXPECT_EQ(decoded->anonymization.report.ttd, 17.25);
  EXPECT_EQ(decoded->anonymization.report.degraded_reason,
            original.anonymization.report.degraded_reason);
  EXPECT_EQ(decoded->counters, original.counters);
}

TEST_F(CheckpointTest, DecodeRejectsGarbageAsDataLoss) {
  for (const char* garbage : {"not a checkpoint at all", ""}) {
    Result<WcopBCheckpoint> wcop_b = DecodeWcopBCheckpoint(garbage);
    ASSERT_FALSE(wcop_b.ok()) << "'" << garbage << "'";
    EXPECT_EQ(wcop_b.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(CheckpointTest, DecodeRejectsTruncationAsDataLoss) {
  WcopBCheckpoint checkpoint;
  checkpoint.rounds.push_back(WcopBRound{});
  checkpoint.anonymization.sanitized =
      Dataset({MakeLineWithReq(1, 0.0, 0.0, 1.0, 0.0, 3, 2, 100.0)});
  checkpoint.counters = {{"a", 1}};
  const std::string payload = EncodeWcopBCheckpoint(checkpoint);
  for (size_t cut : {payload.size() - 1, payload.size() / 2, size_t{5}}) {
    Result<WcopBCheckpoint> decoded =
        DecodeWcopBCheckpoint(payload.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

// Every element count in the payload feeds a vector::reserve: a count no
// payload could hold must come back as kDataLoss, not end the process.
TEST_F(CheckpointTest, DecodeRejectsImplausibleCountsAsDataLoss) {
  WcopBCheckpoint checkpoint;
  checkpoint.rounds.push_back(WcopBRound{});
  checkpoint.anonymization.sanitized =
      Dataset({MakeLineWithReq(1, 0.0, 0.0, 1.0, 0.0, 3, 2, 100.0)});
  checkpoint.anonymization.trashed_ids = {4};
  AnonymityCluster cluster;
  cluster.members = {0};
  checkpoint.anonymization.clusters.push_back(cluster);
  checkpoint.counters = {{"a", 1}};
  const std::string payload = EncodeWcopBCheckpoint(checkpoint);

  // Each count as (line keyword, token offset on that line).
  const std::pair<const char*, size_t> kCounts[] = {
      {"nrounds", 1},   {"ntraj", 1},     {"traj", 6} /* npoints */,
      {"ntrashed", 1},  {"nclusters", 1}, {"cluster", 4} /* nmembers */,
      {"ncounters", 1},
  };
  for (const auto& [keyword, offset] : kCounts) {
    for (const char* huge : {"18446744073709551615", "2305843009213693951"}) {
      Result<WcopBCheckpoint> decoded = DecodeWcopBCheckpoint(
          ReplaceTokenAfter(payload, keyword, offset, huge));
      ASSERT_FALSE(decoded.ok()) << keyword << " count " << huge;
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << keyword << " count " << huge;
    }
  }
}

TEST_F(CheckpointTest, DecodeRejectsUnknownVersionAsFailedPrecondition) {
  Result<WcopBCheckpoint> wcop_b =
      DecodeWcopBCheckpoint("wcop-b-checkpoint 999\n");
  ASSERT_FALSE(wcop_b.ok());
  EXPECT_EQ(wcop_b.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Fingerprints: any change to the data or the options that shape the run
// must change the fingerprint, so stale checkpoints are rejected.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FingerprintsAreSensitive) {
  const Dataset d = SmallSynthetic(15, 20);
  Dataset moved = d;
  moved[0].mutable_points()[0].x += 1e-9;

  EXPECT_NE(DatasetFingerprint(d), DatasetFingerprint(moved));

  WcopOptions wcop;
  WcopBOptions b;
  WcopBOptions bigger_step = b;
  bigger_step.step = b.step + 1;
  EXPECT_EQ(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(d, wcop, b));
  EXPECT_NE(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(d, wcop, bigger_step));
  EXPECT_NE(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(moved, wcop, b));
}

// ---------------------------------------------------------------------------
// WCOP-B interrupt/resume.
// ---------------------------------------------------------------------------

void ExpectWcopBResultsIdentical(const WcopBResult& a, const WcopBResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].edit_size, b.rounds[i].edit_size) << i;
    EXPECT_EQ(a.rounds[i].ttd, b.rounds[i].ttd) << i;
    EXPECT_EQ(a.rounds[i].editing_distortion, b.rounds[i].editing_distortion)
        << i;
    EXPECT_EQ(a.rounds[i].total_distortion, b.rounds[i].total_distortion)
        << i;
    EXPECT_EQ(a.rounds[i].num_clusters, b.rounds[i].num_clusters) << i;
    EXPECT_EQ(a.rounds[i].trashed, b.rounds[i].trashed) << i;
  }
  EXPECT_EQ(a.final_edit_size, b.final_edit_size);
  EXPECT_EQ(a.bound_satisfied, b.bound_satisfied);
  ExpectDatasetsIdentical(a.anonymization.sanitized,
                          b.anonymization.sanitized);
  EXPECT_EQ(a.anonymization.trashed_ids, b.anonymization.trashed_ids);
  EXPECT_EQ(a.anonymization.report.ttd, b.anonymization.report.ttd);
  EXPECT_EQ(a.anonymization.report.total_distortion,
            b.anonymization.report.total_distortion);
}

TEST_F(CheckpointTest, WcopBResumeMatchesUninterruptedRun) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 3;
  b.distort_max = 0.0;  // unreachable -> sweep runs to exhaustion, 3 rounds

  Result<WcopBResult> baseline = RunWcopB(d, options, b);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->rounds.size(), 3u);

  b.checkpoint_path = Path("wcopb.ckpt");
  {
    ScopedFailpoint fp("wcop_b.checkpoint_saved",
                       Status::Internal("simulated crash"), /*max_fires=*/1);
    Result<WcopBResult> interrupted = RunWcopB(d, options, b);
    ASSERT_FALSE(interrupted.ok());
  }
  ASSERT_TRUE(std::filesystem::exists(b.checkpoint_path));

  Result<WcopBResult> resumed = RunWcopB(d, options, b);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->resumed_rounds, 1u);
  ExpectWcopBResultsIdentical(*resumed, *baseline);
}

TEST_F(CheckpointTest, WcopBTerminalCheckpointReplaysResult) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 2;
  b.distort_max = 0.0;
  b.checkpoint_path = Path("wcopb.ckpt");

  Result<WcopBResult> first = RunWcopB(d, options, b);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->resumed);

  // The terminal checkpoint stores the finished sweep: a re-run replays it
  // without recomputing any round.
  FailpointRegistry::Instance().EnableHitCounting(true);
  const uint64_t rounds_before =
      FailpointRegistry::Instance().HitCount("wcop_b.round");
  Result<WcopBResult> replay = RunWcopB(d, options, b);
  EXPECT_EQ(FailpointRegistry::Instance().HitCount("wcop_b.round"),
            rounds_before);
  FailpointRegistry::Instance().EnableHitCounting(false);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->resumed);
  ExpectWcopBResultsIdentical(*replay, *first);
}

TEST_F(CheckpointTest, WcopBRejectsForeignCheckpoint) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 2;
  b.distort_max = 0.0;
  b.checkpoint_path = Path("wcopb.ckpt");
  ASSERT_TRUE(RunWcopB(d, options, b).ok());

  WcopBOptions different = b;
  different.max_edit_size = 3;
  Result<WcopBResult> r = RunWcopB(d, options, different);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << r.status();

  // Different dataset, same options: also refused.
  Result<WcopBResult> r2 = RunWcopB(SmallSynthetic(10, 20), options, b);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kFailedPrecondition)
      << r2.status();
}

TEST_F(CheckpointTest, WcopBDiscardsCorruptCheckpointPayload) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 2;
  b.distort_max = 0.0;
  Result<WcopBResult> baseline = RunWcopB(d, options, b);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Valid snapshot envelopes whose payloads are not checkpoints (both
  // rotation depths, so the fallback cannot save us): the driver must
  // recompute from scratch instead of trusting them.
  b.checkpoint_path = Path("wcopb.ckpt");
  ASSERT_TRUE(WriteSnapshotRotating(b.checkpoint_path, "garbage",
                                    kWcopBCheckpointVersion).ok());
  ASSERT_TRUE(WriteSnapshotRotating(b.checkpoint_path, "more garbage",
                                    kWcopBCheckpointVersion).ok());

  telemetry::Telemetry tel;
  options.telemetry = &tel;
  Result<WcopBResult> fresh = RunWcopB(d, options, b);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(fresh->resumed);
  EXPECT_EQ(fresh->anonymization.report.metrics.CounterValue(
                "checkpoint.corrupt_discarded"),
            1u);
  ExpectWcopBResultsIdentical(*fresh, *baseline);
}

TEST_F(CheckpointTest, WcopBResumeSplicesTelemetryCounters) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 3;
  b.distort_max = 0.0;  // unreachable -> three rounds

  telemetry::Telemetry baseline_tel;
  options.telemetry = &baseline_tel;
  Result<WcopBResult> baseline = RunWcopB(d, options, b);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const uint64_t baseline_rounds =
      baseline->anonymization.report.metrics.CounterValue("wcop_b.rounds");
  ASSERT_EQ(baseline_rounds, 3u);

  b.checkpoint_path = Path("wcopb.ckpt");
  telemetry::Telemetry crashed_tel;
  options.telemetry = &crashed_tel;
  {
    ScopedFailpoint fp("wcop_b.checkpoint_saved",
                       Status::Internal("simulated crash"), /*max_fires=*/1);
    ASSERT_FALSE(RunWcopB(d, options, b).ok());
  }

  // The resumed process gets a fresh sink (as a real restart would); the
  // spliced counters must cover the whole logical sweep, not this process.
  telemetry::Telemetry resumed_tel;
  options.telemetry = &resumed_tel;
  Result<WcopBResult> resumed = RunWcopB(d, options, b);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_rounds, 1u);
  const telemetry::MetricsSnapshot& metrics =
      resumed->anonymization.report.metrics;
  EXPECT_EQ(metrics.CounterValue("wcop_b.rounds"), baseline_rounds);
  EXPECT_EQ(metrics.CounterValue("checkpoint.resumes"), 1u);
}

// Degraded rounds are never checkpointed: a run whose context trips mid-
// sweep leaves either no checkpoint or one from before the trip, so the
// restart redoes the degraded work at full quality.
TEST_F(CheckpointTest, WcopBDegradedRoundIsNotCheckpointed) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  options.allow_partial_results = true;
  RunContext tight;
  ResourceBudget budget;
  budget.max_distance_computations = 1;  // trips during the first clustering
  tight.set_budget(budget);
  options.run_context = &tight;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 3;
  b.distort_max = 0.0;
  b.checkpoint_path = Path("wcopb.ckpt");

  Result<WcopBResult> tripped = RunWcopB(d, options, b);
  if (tripped.ok()) {
    EXPECT_TRUE(tripped->anonymization.report.degraded);
  }
  EXPECT_FALSE(std::filesystem::exists(b.checkpoint_path));
  EXPECT_FALSE(std::filesystem::exists(b.checkpoint_path + ".prev"));

  // Fresh context: the sweep runs from scratch at full quality.
  options.run_context = nullptr;
  options.allow_partial_results = false;
  Result<WcopBResult> clean = RunWcopB(d, options, b);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->resumed);
  EXPECT_FALSE(clean->anonymization.report.degraded);
}

}  // namespace
}  // namespace wcop
