// Pins the continuous pipeline's published bytes. A fixed feed from the
// synthetic generator (two far-apart cities, six hours of trips) is
// published through RunContinuousPipeline at threads 1 and 4, at
// partition.num_shards 1 and 2, and once failed by an injected I/O error
// and then resumed. The CRC32 and size of every `window_NNNNN.wst` must
// equal the list checked in next to this file (pipeline_digests.txt; see
// digest_list.h for its format and how to regenerate it).

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "common/failpoint.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "digest_list.h"
#include "pipeline/continuous.h"
#include "store/store_file.h"

#ifndef WCOP_PIPELINE_DIGESTS
#error "WCOP_PIPELINE_DIGESTS must name the checked-in digest list"
#endif

namespace wcop {
namespace {

namespace fs = std::filesystem;

/// The checked-in list; its configurations are "shards=<n>".
DigestList& Pinned() {
  static DigestList list(
      WCOP_PIPELINE_DIGESTS,
      "# CRC32 and size of every window store that\n"
      "# tests/pipeline_digest_test.cc publishes, per shard count.\n"
      "# Regenerate only for a change that means to move published\n"
      "# bytes, and say why in CHANGES.md.\n");
  return list;
}

class PipelineDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pipeline_digest_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    source_ = (dir_ / "source.wst").string();

    SyntheticOptions gen;
    gen.seed = 41;
    gen.num_users = 30;
    gen.num_trajectories = 120;
    gen.points_per_trajectory = 30;
    gen.sampling_interval = 20.0;
    gen.region_half_diagonal = 12000.0;
    gen.dataset_duration_days = 0.25;
    Result<Dataset> dataset = GenerateTiledSyntheticGeoLife(gen, 2, 200000.0);
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    Rng rng(42);
    AssignUniformRequirements(&*dataset, 2, 4, 50.0, 300.0, &rng);
    ASSERT_TRUE(store::WriteDatasetStore(*dataset, source_).ok());
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  pipeline::ContinuousPipelineOptions Options(const std::string& out,
                                              size_t shards, int threads) {
    pipeline::ContinuousPipelineOptions options;
    options.source_store = source_;
    options.output_dir = (dir_ / out).string();
    options.window_seconds = 1800.0;
    // Fragments under five points spill into the next window, so the
    // carry chain is live in most windows.
    options.min_fragment_points = 5;
    options.wcop.seed = 7;
    options.wcop.threads = threads;
    options.partition.num_shards = shards;
    return options;
  }

  fs::path dir_;
  std::string source_;
};

FileDigests WindowDigests(const std::string& dir) {
  FileDigests digests;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("window_", 0) == 0 && entry.path().extension() == ".wst") {
      digests[name] = DigestOf(entry.path().string());
    }
  }
  return digests;
}

std::string ShardsKey(size_t shards) {
  return "shards=" + std::to_string(shards);
}

TEST_F(PipelineDigestTest, ThreadsAndShardsPublishThePinnedBytes) {
  for (const size_t shards : {1, 2}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(ShardsKey(shards) + " threads=" + std::to_string(threads));
      std::string out = "s";
      out += std::to_string(shards) + "_t" + std::to_string(threads);
      Result<pipeline::ContinuousPipelineResult> result =
          pipeline::RunContinuousPipeline(Options(out, shards, threads));
      ASSERT_TRUE(result.ok()) << result.status();
      uint64_t carried = 0;
      for (const pipeline::WindowManifest& m : result->windows) {
        carried += m.carried_out;
      }
      EXPECT_GT(carried, 0u) << "the feed must exercise the carry chain";
      EXPECT_GT(result->published_fragments, 0u);
      const FileDigests published = WindowDigests((dir_ / out).string());
      EXPECT_EQ(published.size(), result->windows_total);
      Pinned().Expect(ShardsKey(shards), published);
    }
  }
}

TEST_F(PipelineDigestTest, ResumeAfterInjectedFailurePublishesThePinnedBytes) {
  // The first window that merges a carry is the one to fail: its store is
  // published, then its commit fails, and the resumed run must recompute it
  // from the carry committed in the record before it.
  Result<pipeline::ContinuousPipelineResult> reference =
      pipeline::RunContinuousPipeline(Options("ref", 1, 1));
  ASSERT_TRUE(reference.ok()) << reference.status();
  size_t failed = 1;
  while (failed < reference->windows.size() &&
         reference->windows[failed].carried_in == 0) {
    ++failed;
  }
  ASSERT_LT(failed, reference->windows.size()) << "no window merges a carry";

  pipeline::ContinuousPipelineOptions options = Options("out", 1, 1);
  FailpointRegistry::Instance().ArmErrno("pipeline.window_anonymized", EIO,
                                         static_cast<int>(failed) + 1);
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kIoError);
  FailpointRegistry::Instance().DisarmAll();

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, failed);
  Pinned().Expect(ShardsKey(1), WindowDigests(options.output_dir));
}

}  // namespace
}  // namespace wcop
