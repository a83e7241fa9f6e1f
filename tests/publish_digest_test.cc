// Pins the bytes the in-memory publishers produce. Each configuration runs
// one publisher on a fixed synthetic dataset and writes its sanitized
// trajectories to a `.wst` store (raw IEEE-754 doubles, so no digit is lost);
// the CRC32 and size of that store must equal the line checked in next to
// this file (publish_digests.txt; see digest_list.h for its format and how
// to regenerate it).
//
// The configurations cover what the EDR kernel and its traceback feed:
// WCOP-CT and WCOP-B on trajectories longer than one 64-bit word (80 and
// 500 points), each at threads 1 and 4 and with the distance cascade on and
// off (all four runs must publish the one pinned store), plus the five
// publishers of Table 3 (bench/table3_base_comparison) on its dataset at
// seed 7.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "anon/wcop.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "digest_list.h"
#include "segment/convoy.h"
#include "segment/traclus.h"
#include "store/store_file.h"

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

WcopOptions Options(int threads, bool cascade) {
  WcopOptions options;
  options.seed = 11;
  options.threads = threads;
  options.distance.cascade = cascade;
  return options;
}

TEST_F(PublishDigestTest, MultiWordTrajectoriesPublishThePinnedBytes) {
  for (const size_t points : {80, 500}) {
    const Dataset dataset = LongTrips(points == 80 ? 60 : 24, points);
    const std::string shape = std::to_string(points) + "pt";
    for (const int threads : {1, 4}) {
      for (const bool cascade : {true, false}) {
        SCOPED_TRACE(shape + " threads=" + std::to_string(threads) +
                     " cascade=" + std::to_string(cascade));
        Result<AnonymizationResult> ct =
            RunWcopCt(dataset, Options(threads, cascade));
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
        Result<WcopBResult> b =
            RunWcopB(dataset, Options(threads, cascade), b_options);
        ASSERT_TRUE(b.ok()) << b.status();
        EXPECT_GT(b->rounds.size(), 1u);
        ExpectPinned("wcop-b/" + shape, b->anonymization.sanitized);
      }
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

}  // namespace
}  // namespace wcop
