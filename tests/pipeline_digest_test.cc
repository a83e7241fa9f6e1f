// Pins the continuous pipeline's published bytes. A fixed feed from the
// synthetic generator (two far-apart cities, six hours of trips) is
// published through RunContinuousPipeline at threads 1 and 4, at
// partition.num_shards 1 and 2, and once failed by an injected I/O error
// and then resumed. The CRC32 and size of every `window_NNNNN.wst` must
// equal the list checked in next to this file (pipeline_digests.txt).
//
// A change that means to move published bytes regenerates the list with
//
//   WCOP_WRITE_PIPELINE_DIGESTS=$PWD/tests/pipeline_digests.txt
//   ./build/tests/pipeline_digest_test
//
// (one command line) and says why in CHANGES.md. Every other change must
// pass unchanged.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/failpoint.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "pipeline/continuous.h"
#include "store/store_file.h"

#ifndef WCOP_PIPELINE_DIGESTS
#error "WCOP_PIPELINE_DIGESTS must name the checked-in digest list"
#endif

namespace wcop {
namespace {

namespace fs = std::filesystem;

/// Window store name -> "<crc> <size>".
using Digests = std::map<std::string, std::string>;

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

Digests WindowDigests(const std::string& dir) {
  Digests digests;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("window_", 0) != 0 || entry.path().extension() != ".wst") {
      continue;
    }
    Result<store::FileDigest> digest = store::DigestFile(entry.path());
    EXPECT_TRUE(digest.ok()) << digest.status();
    if (digest.ok()) {
      digests[name] = std::to_string(digest->crc) + " " +
                      std::to_string(digest->size);
    }
  }
  return digests;
}

/// The checked-in list: one "shards=<n> <window store> <crc> <size>" line
/// per published window; '#' starts a comment line.
std::map<std::string, Digests> ReadDigestList(const std::string& path) {
  std::map<std::string, Digests> list;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string config, name, crc, size;
    fields >> config >> name >> crc >> size;
    list[config][name] = crc + " " + size;
  }
  return list;
}

std::string ShardsKey(size_t shards) {
  return "shards=" + std::to_string(shards);
}

/// The expected digests of `shards`: the checked-in list, or, when
/// WCOP_WRITE_PIPELINE_DIGESTS names a file, the digests of `fresh`,
/// which are appended to that file first.
Digests Expected(size_t shards, const Digests& fresh) {
  if (const char* out = std::getenv("WCOP_WRITE_PIPELINE_DIGESTS")) {
    std::ofstream list(out, std::ios::app);
    for (const auto& [name, digest] : fresh) {
      list << ShardsKey(shards) << " " << name << " " << digest << "\n";
    }
    return fresh;
  }
  return ReadDigestList(WCOP_PIPELINE_DIGESTS)[ShardsKey(shards)];
}

TEST_F(PipelineDigestTest, ThreadsAndShardsPublishThePinnedBytes) {
  if (const char* out = std::getenv("WCOP_WRITE_PIPELINE_DIGESTS")) {
    std::ofstream list(out, std::ios::trunc);
    list << "# CRC32 and size of every window store that\n"
            "# tests/pipeline_digest_test.cc publishes, per shard count.\n"
            "# Regenerate only for a change that means to move published\n"
            "# bytes, and say why in CHANGES.md.\n";
  }
  for (const size_t shards : {1, 2}) {
    Digests expected;
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
      const Digests published = WindowDigests((dir_ / out).string());
      EXPECT_EQ(published.size(), result->windows_total);
      if (threads == 1) {
        expected = Expected(shards, published);
        ASSERT_FALSE(expected.empty())
            << "no " << ShardsKey(shards) << " lines in "
            << WCOP_PIPELINE_DIGESTS;
      }
      EXPECT_EQ(published, expected);
    }
  }
}

TEST_F(PipelineDigestTest, ResumeAfterInjectedFailurePublishesThePinnedBytes) {
  if (std::getenv("WCOP_WRITE_PIPELINE_DIGESTS") != nullptr) {
    GTEST_SKIP() << "writing the digest list";
  }
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
  EXPECT_EQ(WindowDigests(options.output_dir),
            ReadDigestList(WCOP_PIPELINE_DIGESTS)[ShardsKey(1)]);
}

}  // namespace
}  // namespace wcop
