// Pins the bytes the in-memory publishers produce. Each configuration runs
// one publisher on a fixed synthetic dataset and writes its sanitized
// trajectories to a `.wst` store (raw IEEE-754 doubles, so no digit is lost);
// the CRC32 and size of that store must equal the line checked in next to
// this file (publish_digests.txt; see digest_list.h for its format and how
// to regenerate it).
//
// The configurations cover what the EDR kernel and its traceback feed:
// WCOP-CT and WCOP-B on trajectories longer than one 64-bit word (80 and
// 500 points), each at threads 1 and 4 (both runs must publish the one
// pinned store, and the clustering must be the one greedy_oracle.h's plain
// Algorithm 3 gives at threads 1 and 4 under both pivot policies); the five
// publishers of Table 3 (bench/table3_base_comparison) on its dataset at
// seed 7; and the sharded runner on the benchmark's `many_short` input.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "anon/wcop.h"
#include "common/rng.h"
#include "data/store_convert.h"
#include "data/synthetic.h"
#include "digest_list.h"
#include "greedy_oracle.h"
#include "segment/convoy.h"
#include "segment/traclus.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "traj/io.h"
#include "workloads.h"

#ifndef WCOP_PUBLISH_DIGESTS
#error "WCOP_PUBLISH_DIGESTS must name the checked-in digest list"
#endif

namespace wcop {
namespace {

namespace fs = std::filesystem;

/// The checked-in list; each configuration pins one file, published.wst.
DigestList& Pinned() {
  static DigestList list(
      WCOP_PUBLISH_DIGESTS,
      "# CRC32 and size of the sanitized-dataset store of every\n"
      "# configuration tests/publish_digest_test.cc runs.\n"
      "# Regenerate only for a change that means to move published\n"
      "# bytes, and say why in CHANGES.md.\n");
  return list;
}

class PublishDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("publish_digest_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Checks the store of `published` against the one pinned for `name`.
  /// Every call for one name must publish the same bytes.
  void ExpectPinned(const std::string& name, const Dataset& published) {
    const std::string path = (dir_ / "published.wst").string();
    ASSERT_TRUE(store::WriteDatasetStore(published, path).ok());
    Pinned().Expect(name, {{"published.wst", DigestOf(path)}});
    fs::remove(path);
  }

  fs::path dir_;
};

/// A day of trips, so most pairs overlap in time and the EDR time window
/// holds many columns; `points` per trajectory.
Dataset LongTrips(size_t trajectories, size_t points) {
  SyntheticOptions gen;
  gen.seed = 23;
  gen.num_users = trajectories / 3;
  gen.num_trajectories = trajectories;
  gen.points_per_trajectory = points;
  gen.sampling_interval = 4.0;
  gen.region_half_diagonal = 15000.0;
  gen.dataset_duration_days = 1.0;
  gen.outlier_fraction = 0.05;
  Dataset dataset = GenerateSyntheticGeoLife(gen).value();
  Rng rng(5);
  AssignUniformRequirements(&dataset, 2, 4, 20.0, 250.0, &rng);
  return dataset;
}

WcopOptions Options(int threads) {
  WcopOptions options;
  options.seed = 11;
  options.threads = threads;
  return options;
}

TEST_F(PublishDigestTest, MultiWordTrajectoriesPublishThePinnedBytes) {
  for (const size_t points : {80, 500}) {
    const Dataset dataset = LongTrips(points == 80 ? 60 : 24, points);
    const std::string shape = std::to_string(points) + "pt";
    {
      SCOPED_TRACE(shape + " clustering against the oracle");
      const WcopOptions resolved = ResolveOptions(dataset, Options(1));
      testing_util::ExpectGreedyMatchesOracle(
          dataset,
          static_cast<size_t>(resolved.trash_fraction *
                              static_cast<double>(dataset.size())),
          resolved);
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(shape + " threads=" + std::to_string(threads));
      Result<AnonymizationResult> ct = RunWcopCt(dataset, Options(threads));
      ASSERT_TRUE(ct.ok()) << ct.status();
      // The edit scripts mix matches, creations and deletions.
      EXPECT_GT(ct->report.total_spatial_translation, 0.0);
      EXPECT_GT(ct->report.created_points, 0u);
      EXPECT_GT(ct->report.deleted_points, 0u);
      ExpectPinned("wcop-ct/" + shape, ct->sanitized);

      WcopBOptions b_options;
      b_options.distort_max = 0.0;  // the full editing sweep
      b_options.step = 2;
      b_options.max_edit_size = 4;
      Result<WcopBResult> b = RunWcopB(dataset, Options(threads), b_options);
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_GT(b->rounds.size(), 1u);
      ExpectPinned("wcop-b/" + shape, b->anonymization.sanitized);
    }
  }
}

TEST_F(PublishDigestTest, Table3PublishersPublishThePinnedBytes) {
  // bench/table3_base_comparison at its defaults: bench_util.h's
  // MakeBenchDataset (238 x 120, seed 7), k ~ U{2..5}, delta ~ U[10, 250]
  // drawn at seed 8, clustering seed 9.
  SyntheticOptions gen;
  gen.seed = 7;
  gen.num_trajectories = 238;
  gen.num_users = 72;
  gen.points_per_trajectory = 120;
  gen.sampling_interval = 3.0 * 1442.0 / 120.0;
  gen.popular_route_prob = 0.5;
  gen.companion_prob = 0.25;
  gen.outlier_fraction = 0.08;
  Dataset dataset = GenerateSyntheticGeoLife(gen).value();
  Rng rng(8);
  AssignUniformRequirements(&dataset, 2, 5, 10.0, 250.0, &rng);
  WcopOptions options;
  options.seed = 9;
  options.threads = 1;

  Result<AnonymizationResult> nv = RunWcopNv(dataset, options);
  ASSERT_TRUE(nv.ok()) << nv.status();
  ExpectPinned("table3/wcop-nv", nv->sanitized);

  Result<AnonymizationResult> ct = RunWcopCt(dataset, options);
  ASSERT_TRUE(ct.ok()) << ct.status();
  ExpectPinned("table3/wcop-ct", ct->sanitized);

  TraclusOptions traclus;
  traclus.mdl_advantage = 4.0;
  traclus.min_sub_trajectory_points = 4;
  TraclusSegmenter traclus_segmenter(traclus);
  Result<WcopSaResult> sa_traclus =
      RunWcopSa(dataset, &traclus_segmenter, options);
  ASSERT_TRUE(sa_traclus.ok()) << sa_traclus.status();
  ExpectPinned("table3/wcop-sa-traclus", sa_traclus->anonymization.sanitized);

  ConvoyOptions convoy;
  convoy.min_objects = 2;
  convoy.eps = 250.0;
  convoy.min_duration_snapshots = 3;
  convoy.snapshot_interval = 60.0;
  ConvoySegmenter convoy_segmenter(convoy);
  Result<WcopSaResult> sa_convoys =
      RunWcopSa(dataset, &convoy_segmenter, options);
  ASSERT_TRUE(sa_convoys.ok()) << sa_convoys.status();
  ExpectPinned("table3/wcop-sa-convoys", sa_convoys->anonymization.sanitized);

  WcopBOptions b_options;
  b_options.distort_max = ct->report.total_distortion * 0.8;
  b_options.step = 1;
  b_options.max_edit_size = 16;
  Result<WcopBResult> b = RunWcopB(dataset, options, b_options);
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectPinned("table3/wcop-b", b->anonymization.sanitized);
}

TEST_F(PublishDigestTest, ShardedRunPublishesThePinnedBytesOnManyShort) {
  // perfbench's `many_short` input at run seed 1, made as
  // perfbench/generate.cc makes it and ingested as perfbench/e2e.cc
  // ingests it: CSV, then ConvertCsvToStore. The generator setup and the
  // run seed below are copies of generate.cc's and e2e.cc's (`kWcopSeed`),
  // which perfbench/ does not export; the ROADMAP's digest item moves them
  // into perfbench/workloads.h with the next benchmark change.
  const perfbench::Workload& w = *perfbench::FindWorkload("many_short");
  SyntheticOptions gen;
  gen.seed = perfbench::kCitySeed;
  gen.num_trajectories = w.trajectories;
  gen.num_users = w.trajectories / 3 + 1;
  gen.points_per_trajectory = w.points;
  gen.sampling_interval = w.sampling_interval;
  gen.dataset_duration_days = w.span_days;
  gen.outlier_fraction = perfbench::kOutlierFraction;
  Dataset dataset = GenerateSyntheticGeoLife(gen).value();
  Rng rng(MixSeed(1, 1));
  AssignUniformRequirements(&dataset, perfbench::kMinK, perfbench::kMaxK,
                            perfbench::kMinDelta, perfbench::kMaxDelta, &rng);
  const std::string csv = (dir_ / "input.csv").string();
  const std::string source = (dir_ / "source.wst").string();
  ASSERT_TRUE(WriteDatasetCsv(dataset, csv).ok());
  ASSERT_TRUE(ConvertCsvToStore(csv, source).ok());
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok()) << reader.status();

  for (const size_t shards : {1, 4}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      // perfbench's BatchOptions, with the shard count pinned.
      store::ShardRunOptions run;
      run.wcop.seed = 7;
      run.wcop.threads = threads;
      run.partition.num_shards = shards;
      run.verify_shards = true;
      run.stream_output_store = (dir_ / "published.wst").string();
      Result<store::ShardedRunResult> result =
          store::RunShardedWcopCt(*reader, run);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->all_verified);
      // Four requested shards cut this city into two.
      EXPECT_EQ(result->partition.shards.size() > 1, shards > 1);
      Pinned().Expect(
          "sharded/many_short/" + std::to_string(shards) + "-shards",
          {{"published.wst", DigestOf(run.stream_output_store)}});
      std::filesystem::remove(run.stream_output_store);
    }
  }
}

}  // namespace
}  // namespace wcop
