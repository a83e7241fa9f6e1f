// The determinism contract of the parallel execution layer (DESIGN.md
// "Parallel execution"): the published dataset bytes and the report (minus
// wall-clock timings and throughput metrics) must be identical between
// --threads=1 and --threads=N, and the distance-call / budget accounting
// must agree exactly.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "anon/nwa.h"
#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "anon/wcop_sa.h"
#include "common/telemetry.h"
#include "data/geolife_parser.h"
#include "segment/traclus.h"
#include "test_util.h"

namespace wcop {
namespace {

namespace fs = std::filesystem;
using testing_util::SmallSynthetic;

// Bitwise double equality: determinism means the same bits, not "close".
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectDatasetsBitIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const Trajectory& ta = a[i];
    const Trajectory& tb = b[i];
    ASSERT_EQ(ta.id(), tb.id()) << "trajectory " << i;
    ASSERT_EQ(ta.requirement().k, tb.requirement().k);
    ASSERT_TRUE(SameBits(ta.requirement().delta, tb.requirement().delta));
    ASSERT_EQ(ta.size(), tb.size()) << "trajectory " << i;
    for (size_t p = 0; p < ta.size(); ++p) {
      ASSERT_TRUE(SameBits(ta[p].x, tb[p].x))
          << "traj " << i << " point " << p << ": " << ta[p].x << " vs "
          << tb[p].x;
      ASSERT_TRUE(SameBits(ta[p].y, tb[p].y)) << "traj " << i << " pt " << p;
      ASSERT_TRUE(SameBits(ta[p].t, tb[p].t)) << "traj " << i << " pt " << p;
    }
  }
}

// Everything in the report except runtime_seconds and the metrics snapshot
// (timings and queue gauges legitimately differ across thread counts).
void ExpectReportsEqual(const AnonymizationReport& a,
                        const AnonymizationReport& b) {
  EXPECT_EQ(a.input_trajectories, b.input_trajectories);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.trashed_trajectories, b.trashed_trajectories);
  EXPECT_EQ(a.trashed_points, b.trashed_points);
  EXPECT_EQ(a.created_points, b.created_points);
  EXPECT_EQ(a.deleted_points, b.deleted_points);
  EXPECT_TRUE(SameBits(a.discernibility, b.discernibility));
  EXPECT_TRUE(SameBits(a.total_spatial_translation,
                       b.total_spatial_translation));
  EXPECT_TRUE(SameBits(a.total_temporal_translation,
                       b.total_temporal_translation));
  EXPECT_TRUE(SameBits(a.omega, b.omega));
  EXPECT_TRUE(SameBits(a.ttd, b.ttd));
  EXPECT_TRUE(SameBits(a.total_distortion, b.total_distortion));
  EXPECT_EQ(a.clustering_rounds, b.clustering_rounds);
  EXPECT_TRUE(SameBits(a.final_radius, b.final_radius));
  EXPECT_EQ(a.degraded, b.degraded);
}

// The schedule-independent accounting counters (every distance.* counter,
// clustering and translation); the queue/thread gauges and span timings
// are exempt by design.
void ExpectAccountingEqual(const telemetry::MetricsSnapshot& a,
                           const telemetry::MetricsSnapshot& b) {
  for (const char* counter :
       {"distance.calls.edr", "distance.calls.sync_euclidean",
        "distance.cache_hits", "distance.early_abandoned",
        "distance.lb.length_pruned", "distance.lb.separation_pruned",
        "distance.candidates.prefiltered",
        "cluster.attempts", "cluster.accepted",
        "cluster.leftover.assigned", "cluster.leftover.trashed",
        "translate.created_points", "translate.deleted_points",
        "translate.matched_points", "trash.trajectories"}) {
    EXPECT_EQ(a.CounterValue(counter), b.CounterValue(counter)) << counter;
  }
}

AnonymizationResult RunCt(const Dataset& d, int threads,
                          telemetry::Telemetry* tel,
                          WcopOptions options = {}) {
  options.seed = 1234;
  options.threads = threads;
  options.telemetry = tel;
  Result<AnonymizationResult> r = RunWcopCt(d, options);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(ParallelDeterminismTest, WcopCtSerialVsEightThreadsSynthetic) {
  const Dataset d = SmallSynthetic(60, 40);
  telemetry::Telemetry tel1, tel8;
  const AnonymizationResult serial = RunCt(d, 1, &tel1);
  const AnonymizationResult parallel = RunCt(d, 8, &tel8);
  ExpectDatasetsBitIdentical(serial.sanitized, parallel.sanitized);
  ExpectReportsEqual(serial.report, parallel.report);
  ExpectAccountingEqual(serial.report.metrics, parallel.report.metrics);
  // Both runs publish verifiable output.
  EXPECT_TRUE(VerifyAnonymity(d, parallel).ok);
}

TEST(ParallelDeterminismTest, WcopCtFarthestFirstPivotPolicy) {
  // The farthest-first scores are exact lookups on the coordinating thread;
  // the translation still fans out.
  const Dataset d = SmallSynthetic(40, 30);
  WcopOptions options;
  options.pivot_policy = WcopOptions::PivotPolicy::kFarthestFirst;
  telemetry::Telemetry tel1, tel8;
  const AnonymizationResult serial = RunCt(d, 1, &tel1, options);
  const AnonymizationResult parallel = RunCt(d, 8, &tel8, options);
  ExpectDatasetsBitIdentical(serial.sanitized, parallel.sanitized);
  ExpectReportsEqual(serial.report, parallel.report);
  ExpectAccountingEqual(serial.report.metrics, parallel.report.metrics);
}

TEST(ParallelDeterminismTest, NwaSerialVsEightThreads) {
  // NWA clusters by synchronized Euclidean distance: its pivot scan is the
  // LookupBatch fan-out.
  Dataset d = SmallSynthetic(40, 30);
  for (Trajectory& t : d.mutable_trajectories()) {
    const double t0 = t.StartTime();
    for (Point& p : t.mutable_points()) {
      p.t -= t0;  // NWA clusters co-temporal trajectories
    }
  }
  telemetry::Telemetry tel1, tel8;
  WcopOptions options;
  options.seed = 1234;
  options.threads = 1;
  options.telemetry = &tel1;
  Result<AnonymizationResult> serial = RunNwa(d, 3, 200.0, options);
  options.threads = 8;
  options.telemetry = &tel8;
  Result<AnonymizationResult> parallel = RunNwa(d, 3, 200.0, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectDatasetsBitIdentical(serial->sanitized, parallel->sanitized);
  const telemetry::MetricsSnapshot snap1 = tel1.metrics().Snapshot();
  EXPECT_GT(snap1.CounterValue("distance.calls.sync_euclidean"), 0u);
  ExpectAccountingEqual(snap1, tel8.metrics().Snapshot());
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsAreIdentical) {
  // Not just serial==parallel: two parallel runs (different schedules) must
  // also agree with each other.
  const Dataset d = SmallSynthetic(40, 30);
  telemetry::Telemetry tel_a, tel_b;
  const AnonymizationResult a = RunCt(d, 8, &tel_a);
  const AnonymizationResult b = RunCt(d, 8, &tel_b);
  ExpectDatasetsBitIdentical(a.sanitized, b.sanitized);
  ExpectReportsEqual(a.report, b.report);
  ExpectAccountingEqual(a.report.metrics, b.report.metrics);
}

TEST(ParallelDeterminismTest, WcopSaTraclusSerialVsEightThreads) {
  const Dataset d = SmallSynthetic(30, 40);
  auto run = [&](int threads) {
    WcopOptions options;
    options.seed = 77;
    options.threads = threads;
    TraclusOptions traclus_options;
    traclus_options.threads = threads;
    TraclusSegmenter segmenter(traclus_options);
    Result<WcopSaResult> r = RunWcopSa(d, &segmenter, options);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  };
  const WcopSaResult serial = run(1);
  const WcopSaResult parallel = run(8);
  ExpectDatasetsBitIdentical(serial.segmented, parallel.segmented);
  ExpectDatasetsBitIdentical(serial.anonymization.sanitized,
                             parallel.anonymization.sanitized);
  ExpectReportsEqual(serial.anonymization.report,
                     parallel.anonymization.report);
}

// ---------------------------------------------------------------------------
// GeoLife-format fixture: the same contract on parsed real-format data.
// ---------------------------------------------------------------------------

class GeoLifeDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() / "wcop_parallel_geolife";
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WritePlt(const std::string& user, const std::string& name,
                double lat0, double lon0, size_t points) {
    const fs::path dir = root_ / user / "Trajectory";
    fs::create_directories(dir);
    std::ofstream out(dir / name);
    out << "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
           "0,2,255,My Track,0,0,2182,255\n0\n";
    for (size_t i = 0; i < points; ++i) {
      const double lat = lat0 + 1e-5 * static_cast<double>(i);
      const double lon = lon0 + 2e-5 * static_cast<double>(i);
      const double day = 39745.0 + 1e-4 * static_cast<double>(i);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%.6f,%.6f,0,492,%.6f,2008-10-24,04:07:%02zu\n", lat, lon,
                    day, i % 60);
      out << line;
    }
  }

  fs::path root_;
};

TEST_F(GeoLifeDeterminismTest, WcopCtSerialVsEightThreadsGeoLife) {
  // A handful of users with overlapping and disjoint routes.
  for (int u = 0; u < 8; ++u) {
    char user[8];
    std::snprintf(user, sizeof(user), "%03d", u);
    WritePlt(user, "a.plt", 39.9066 + 0.0002 * (u % 3),
             116.3855 + 0.0003 * (u % 4), 24);
    WritePlt(user, "b.plt", 39.9100 + 0.0001 * u, 116.3900, 18);
  }
  Result<Dataset> loaded = LoadGeoLifeDirectory(root_.string(), {});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Dataset d = std::move(loaded).value();
  ASSERT_GE(d.size(), 8u);
  Rng rng(5);
  AssignUniformRequirements(&d, 2, 4, 10.0, 200.0, &rng);

  telemetry::Telemetry tel1, tel8;
  const AnonymizationResult serial = RunCt(d, 1, &tel1);
  const AnonymizationResult parallel = RunCt(d, 8, &tel8);
  ExpectDatasetsBitIdentical(serial.sanitized, parallel.sanitized);
  ExpectReportsEqual(serial.report, parallel.report);
  ExpectAccountingEqual(serial.report.metrics, parallel.report.metrics);
}

}  // namespace
}  // namespace wcop
