// Cooperative signal shutdown: SIGINT/SIGTERM flip the process-wide
// cancellation flag (common/signals.h); drivers threading that token
// through a RunContext trip with kCancelled at the next poll, keep every
// unit they already committed, and a later run resumes to byte-identical
// output.
//
// Signals are delivered at exact pipeline boundaries with
// FailpointRegistry::ArmSignal, so the interruption point is deterministic
// and the handler (installed in-process) absorbs the raise safely under
// gtest.

#include <signal.h>

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/signals.h"
#include "data/synthetic.h"
#include "pipeline/continuous.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::GroupedDataset;
using testing_util::PublishedWindowBytes;

// Two far-apart synthetic cities: an input shape the partitioner actually
// splits (one dense city collapses to a single shard by design).
Dataset TiledDataset() {
  SyntheticOptions options;
  options.seed = 21;
  options.num_users = 8;
  options.num_trajectories = 12;
  options.points_per_trajectory = 24;
  options.sampling_interval = 10.0;
  options.region_half_diagonal = 6000.0;
  options.num_hubs = 5;
  options.num_routes = 4;
  options.dataset_duration_days = 10.0;
  Dataset dataset =
      GenerateTiledSyntheticGeoLife(options, /*tiles=*/2, 200000.0).value();
  Rng rng(22);
  AssignUniformRequirements(&dataset, 2, 4, 10.0, 200.0, &rng);
  return dataset;
}

// Exact %.17g dump: equal strings iff the datasets are bitwise equal.
std::string DumpDataset(const Dataset& d) {
  std::string out;
  char buf[192];
  for (const Trajectory& t : d.trajectories()) {
    std::snprintf(buf, sizeof(buf), "traj %" PRId64 " %" PRId64 " %" PRId64
                  " %d %.17g %zu\n",
                  t.id(), t.object_id(), t.parent_id(), t.requirement().k,
                  t.requirement().delta, t.size());
    out.append(buf);
    for (const Point& p : t.points()) {
      std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g\n", p.x, p.y, p.t);
      out.append(buf);
    }
  }
  return out;
}

class SignalShutdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("signal_shutdown_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    FailpointRegistry::Instance().DisarmAll();
    ResetShutdownSignalStateForTesting();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    ResetShutdownSignalStateForTesting();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(SignalShutdownTest, SigtermCancelsPipelineAndResumeIsByteIdentical) {
  const std::string source = Path("source.wst");
  ASSERT_TRUE(store::WriteDatasetStore(GroupedDataset(), source).ok());
  pipeline::ContinuousPipelineOptions options;
  options.source_store = source;
  options.output_dir = Path("ref");
  options.window_seconds = 100.0;

  // Uninterrupted reference run.
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> expected =
      PublishedWindowBytes(Path("ref"));
  ASSERT_FALSE(expected.empty());

  // SIGTERM lands at the start of window 1: the handler flips the shared
  // flag, the run trips kCancelled at its next poll, and window 0's
  // manifest is already committed.
  const CancellationToken token = InstallShutdownSignalHandlers();
  RunContext ctx;
  ctx.set_cancellation_token(token);
  options.output_dir = Path("out");
  options.wcop.run_context = &ctx;
  FailpointRegistry::Instance().ArmSignal("pipeline.window_start", SIGTERM,
                                          /*on_hit=*/2);
  Result<pipeline::ContinuousPipelineResult> interrupted =
      pipeline::RunContinuousPipeline(options);
  ASSERT_FALSE(interrupted.ok()) << "run should have been cancelled";
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled)
      << interrupted.status();
  EXPECT_TRUE(ShutdownSignalReceived());
  EXPECT_EQ(LastShutdownSignal(), SIGTERM);
  std::vector<pipeline::WindowRecord> committed;
  ASSERT_TRUE(pipeline::WindowJournal(Path("out/window_journal.jnl"))
                  .Read(&committed)
                  .ok());
  EXPECT_EQ(committed.size(), 1u)
      << "windows finished before the signal must stay committed";

  // New life: no signal, no token. The run resumes past the committed
  // window and converges to the uninterrupted output, byte for byte.
  FailpointRegistry::Instance().DisarmAll();
  ResetShutdownSignalStateForTesting();
  options.wcop.run_context = nullptr;
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 1u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), expected);
}

TEST_F(SignalShutdownTest, SigintCancelsShardRunnerAndResumeIsByteIdentical) {
  const std::string store_path = Path("input.wst");
  ASSERT_TRUE(store::WriteDatasetStore(TiledDataset(), store_path).ok());
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  store::ShardRunOptions options;
  options.partition.num_shards = 4;
  Result<store::ShardedRunResult> baseline =
      store::RunShardedWcopCt(*reader, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string expected = DumpDataset(baseline->merged.sanitized);
  ASSERT_FALSE(expected.empty());

  // The partitioner decides the real shard count (num_shards is only a
  // target); the baseline guarantees at least two, so SIGINT at the start
  // of shard 2 leaves shard 1 with a durable checkpoint and trips the run
  // with kCancelled inside shard 2.
  ASSERT_GT(baseline->partition.shards.size(), 1u);
  const CancellationToken token = InstallShutdownSignalHandlers();
  RunContext ctx;
  ctx.set_cancellation_token(token);
  options.checkpoint_dir = Path("ckpt");
  options.wcop.run_context = &ctx;
  FailpointRegistry::Instance().ArmSignal("shard.run", SIGINT, /*on_hit=*/2);
  Result<store::ShardedRunResult> interrupted =
      store::RunShardedWcopCt(*reader, options);
  ASSERT_FALSE(interrupted.ok()) << "run should have been cancelled";
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled)
      << interrupted.status();
  EXPECT_EQ(LastShutdownSignal(), SIGINT);
  size_t checkpoints = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(Path("ckpt"))) {
    checkpoints += entry.path().extension() == ".ckpt" ? 1 : 0;
  }
  EXPECT_GE(checkpoints, 1u)
      << "completed shards must leave durable checkpoints behind";

  // Resume without the token: completed shards are restored, the rest are
  // recomputed, and the merged output matches the uninterrupted run.
  FailpointRegistry::Instance().DisarmAll();
  ResetShutdownSignalStateForTesting();
  options.wcop.run_context = nullptr;
  Result<store::ShardedRunResult> resumed =
      store::RunShardedWcopCt(*reader, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_GE(resumed->resumed_shards, 1u);
  EXPECT_TRUE(resumed->all_verified);
  EXPECT_EQ(DumpDataset(resumed->merged.sanitized), expected);
}

// Repeated installs share one flag; tokens observe a signal raised later
// through any of them.
TEST_F(SignalShutdownTest, HandlersAreIdempotentAndTokensShareTheFlag) {
  const CancellationToken a = InstallShutdownSignalHandlers();
  const CancellationToken b = InstallShutdownSignalHandlers();
  EXPECT_FALSE(a.cancellation_requested());
  EXPECT_FALSE(b.cancellation_requested());
  EXPECT_FALSE(ShutdownSignalReceived());
  ::raise(SIGTERM);
  EXPECT_TRUE(a.cancellation_requested());
  EXPECT_TRUE(b.cancellation_requested());
  EXPECT_TRUE(ShutdownSignalReceived());
  EXPECT_EQ(LastShutdownSignal(), SIGTERM);
}

}  // namespace
}  // namespace wcop
