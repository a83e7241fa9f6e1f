// Unit and in-process integration tests of the continuous publication
// pipeline: the window-iterator core, out-of-core window extraction with
// carry-over, the manifest codec, and the engine's publish / resume /
// refuse / retry semantics. Process-kill coverage lives in
// pipeline_chaos_test.cc.

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/retry.h"
#include "pipeline/continuous.h"
#include "pipeline/manifest.h"
#include "store/store_file.h"
#include "store/window_io.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::GroupedDataset;
using testing_util::MakeLineWithReq;
using testing_util::PublishedWindowBytes;
using testing_util::StaggeredGroupedDataset;

namespace fs = std::filesystem;

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pipeline_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string WriteSource(const Dataset& dataset) {
    const std::string path = Path("source.wst");
    EXPECT_TRUE(store::WriteDatasetStore(dataset, path).ok());
    return path;
  }

  pipeline::ContinuousPipelineOptions BaseOptions(const std::string& source,
                                                  const std::string& out) {
    pipeline::ContinuousPipelineOptions options;
    options.source_store = source;
    options.output_dir = Path(out);
    options.window_seconds = 100.0;
    options.verify_shards = true;
    options.wcop.seed = 7;
    return options;
  }

  fs::path dir_;
};

std::string WindowName(size_t window, const std::string& suffix) {
  char name[32];
  std::snprintf(name, sizeof(name), "window_%05zu", window);
  return name + suffix;
}

std::set<std::string> ListDir(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

void ExpectDigest(const std::string& path, uint64_t crc, uint64_t size) {
  Result<pipeline::FileDigest> digest = pipeline::DigestFile(path);
  ASSERT_TRUE(digest.ok()) << digest.status();
  EXPECT_EQ(digest->crc, crc) << path;
  EXPECT_EQ(digest->size, size) << path;
}

// ---------------------------------------------------------------------------
// Window-iterator core (store/window_io.h).
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PlanWindowsCoversTheWholeLifetime) {
  const Result<store::WindowPlan> plan =
      store::PlanWindows(0.0, 290.0, 100.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_windows, 3u);
  EXPECT_EQ(plan->WindowStart(0), 0.0);
  EXPECT_EQ(plan->WindowStart(1), 100.0);
  // The last sample (t = 290) falls inside the final window.
  EXPECT_LT(plan->WindowStart(2), 290.0);
  EXPECT_GT(plan->WindowStart(3), 290.0);
}

TEST_F(PipelineTest, PlanWindowsRejectsBadWidths) {
  EXPECT_FALSE(store::PlanWindows(0.0, 10.0, 0.0).ok());
  EXPECT_FALSE(store::PlanWindows(0.0, 10.0, -1.0).ok());
  // A width below 1 ulp of t_min cannot advance the grid.
  EXPECT_FALSE(store::PlanWindows(1e18, 1e18 + 10.0, 1e-6).ok());
}

TEST_F(PipelineTest, SliceIsHalfOpen) {
  const Trajectory t = MakeLineWithReq(1, 0, 0, 1, 0, /*n=*/5, 2, 100.0,
                                       /*dt=*/10.0);  // t = 0..40
  EXPECT_EQ(store::SlicePointsInWindow(t, 0.0, 20.0).size(), 2u);  // 0, 10
  // 20, 30, 40
  EXPECT_EQ(store::SlicePointsInWindow(t, 20.0, 50.0).size(), 3u);
  EXPECT_TRUE(store::SlicePointsInWindow(t, 100.0, 200.0).empty());
}

// ---------------------------------------------------------------------------
// Out-of-core extraction with carry-over (store/window_io.h).
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ExtractWindowSpillsAndMergesCarry) {
  // Trajectory 1: one sample at t=90 in window [0,100), continues to 190.
  // Too short to publish alone -> spilled; window [100,200) must merge the
  // carried point in front of its own slice.
  std::vector<Trajectory> trajectories;
  std::vector<Point> pts;
  for (int i = 0; i < 11; ++i) {
    pts.emplace_back(5.0 * i, 0.0, 90.0 + 10.0 * i);  // t = 90..190
  }
  trajectories.emplace_back(1, pts, Requirement{3, 120.0});
  const std::string source = WriteSource(Dataset(std::move(trajectories)));
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok());

  store::WindowExtractOptions w0;
  w0.window_start = 0.0;
  w0.window_end = 100.0;
  w0.window_out_path = Path("win0.wst");
  w0.carry_out_path = Path("carry1.wst");
  Result<store::WindowExtraction> first = ExtractWindow(*reader, w0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->fragments, 0u);
  EXPECT_EQ(first->carried_out, 1u);
  EXPECT_EQ(first->suppressed, 0u);

  store::WindowExtractOptions w1;
  w1.window_start = 100.0;
  w1.window_end = 200.0;
  w1.carry_in_path = Path("carry1.wst");
  w1.window_out_path = Path("win1.wst");
  w1.carry_out_path = Path("carry2.wst");
  w1.next_fragment_id = 100;
  Result<store::WindowExtraction> second = ExtractWindow(*reader, w1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->carried_in, 1u);
  EXPECT_EQ(second->fragments, 1u);
  EXPECT_EQ(second->carried_out, 0u);

  Result<store::TrajectoryStoreReader> win1 =
      store::TrajectoryStoreReader::Open(Path("win1.wst"));
  ASSERT_TRUE(win1.ok());
  ASSERT_EQ(win1->size(), 1u);
  Result<Trajectory> merged = win1->Read(0);
  ASSERT_TRUE(merged.ok());
  // 1 carried point (t=90) + 10 in-window points (t=100..190), the user's
  // requirement preserved across the spill.
  EXPECT_EQ(merged->size(), 11u);
  EXPECT_EQ(merged->points().front().t, 90.0);
  EXPECT_EQ(merged->id(), 100);
  EXPECT_EQ(merged->requirement().k, 3);
  EXPECT_EQ(merged->requirement().delta, 120.0);
}

TEST_F(PipelineTest, ExtractWindowSuppressesShortFinalFragment) {
  // One sample at t=95 and the trajectory ends there: nothing to carry
  // into, so the fragment is suppressed for good.
  std::vector<Trajectory> trajectories;
  std::vector<Point> pts = {{0.0, 0.0, 95.0}};
  trajectories.emplace_back(1, pts, Requirement{2, 100.0});
  const std::string source = WriteSource(Dataset(std::move(trajectories)));
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok());

  store::WindowExtractOptions w;
  w.window_start = 0.0;
  w.window_end = 100.0;
  w.window_out_path = Path("win.wst");
  w.carry_out_path = Path("carry.wst");
  Result<store::WindowExtraction> stats = ExtractWindow(*reader, w);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->fragments, 0u);
  EXPECT_EQ(stats->carried_out, 0u);
  EXPECT_EQ(stats->suppressed, 1u);
}

// ---------------------------------------------------------------------------
// Manifest codec.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ManifestRoundTripsExactly) {
  pipeline::WindowManifest m;
  m.config_fingerprint = 0xdeadbeefcafef00dULL;
  m.window_index = 41;
  m.window_start = 0.1;  // not exactly representable: %.17g must round-trip
  m.window_end = 1e9 + 0.25;
  m.input_fragments = 7;
  m.published_fragments = 5;
  m.suppressed_delta = 2;
  m.carried_in = 1;
  m.carried_out = 3;
  m.clusters = 2;
  m.ttd = 12345.6789;
  m.skipped = true;
  m.degraded = true;
  m.next_fragment_id = -9;
  m.input_crc = 1;
  m.input_size = 2;
  m.output_crc = 3;
  m.output_size = 4;
  m.carry_crc = 5;
  m.carry_size = 6;

  const std::string encoded = pipeline::EncodeWindowManifest(m);
  Result<pipeline::WindowManifest> decoded =
      pipeline::DecodeWindowManifest(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(pipeline::EncodeWindowManifest(*decoded), encoded);
  EXPECT_EQ(decoded->window_start, m.window_start);
  EXPECT_EQ(decoded->next_fragment_id, -9);
  EXPECT_TRUE(decoded->skipped);
}

TEST_F(PipelineTest, ManifestDecodeFailuresAreDataLoss) {
  EXPECT_EQ(pipeline::DecodeWindowManifest("").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(pipeline::DecodeWindowManifest("not-a-manifest 1 2 3")
                .status()
                .code(),
            StatusCode::kDataLoss);
  pipeline::WindowManifest m;
  std::string truncated = pipeline::EncodeWindowManifest(m);
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(pipeline::DecodeWindowManifest(truncated).status().code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// The engine: publish, resume, refuse, retry.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PublishesEveryWindowWithValidManifests) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->windows_total, 3u);
  EXPECT_EQ(result->resumed_windows, 0u);
  ASSERT_EQ(result->windows.size(), 3u);
  EXPECT_GT(result->published_fragments, 0u);

  for (size_t wi = 0; wi < 3; ++wi) {
    SCOPED_TRACE(wi);
    char name[32];
    std::snprintf(name, sizeof(name), "window_%05zu", wi);
    const std::string store_path = Path("out/" + std::string(name) + ".wst");
    const std::string manifest_path =
        Path("out/" + std::string(name) + ".mfr");
    Result<pipeline::WindowManifest> manifest =
        pipeline::ReadWindowManifest(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    EXPECT_EQ(manifest->window_index, wi);
    // The published store's bytes match the digest the manifest committed.
    Result<pipeline::FileDigest> digest = pipeline::DigestFile(store_path);
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(digest->crc, manifest->output_crc);
    EXPECT_EQ(digest->size, manifest->output_size);
    // And the store itself opens and holds the published fragments.
    Result<store::TrajectoryStoreReader> window =
        store::TrajectoryStoreReader::Open(store_path);
    ASSERT_TRUE(window.ok());
    EXPECT_EQ(window->size(), manifest->published_fragments);
  }
}

// Every digest a manifest records names real bytes, although the pipeline
// reads none of them back: the output and carry digests equal DigestFile of
// those files, and the input digest equals that of the store ExtractWindow
// writes for the window when given a path.
TEST_F(PipelineTest, ManifestDigestsMatchTheBytesTheyName) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(BaseOptions(source, "out"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->windows.size(), 5u);
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok()) << reader.status();

  std::string carry_in;
  int64_t next_fragment_id = 0;
  uint64_t carried = 0;
  for (size_t wi = 0; wi < result->windows.size(); ++wi) {
    SCOPED_TRACE(wi);
    const pipeline::WindowManifest& m = result->windows[wi];
    ExpectDigest(Path("out/" + WindowName(wi, ".wst")), m.output_crc,
                 m.output_size);

    store::WindowExtractOptions extract;
    extract.window_start = m.window_start;
    extract.window_end = m.window_end;
    extract.next_fragment_id = next_fragment_id;
    extract.carry_in_path = carry_in;
    extract.window_out_path = Path(WindowName(wi, ".input.wst"));
    extract.carry_out_path = Path(WindowName(wi, ".carry.wst"));
    Result<store::WindowExtraction> extraction =
        store::ExtractWindow(*reader, extract);
    ASSERT_TRUE(extraction.ok()) << extraction.status();
    EXPECT_EQ(extraction->fragments, m.input_fragments);
    EXPECT_EQ(extraction->input.crc, m.input_crc);
    EXPECT_EQ(extraction->input.size, m.input_size);
    ExpectDigest(extract.window_out_path, m.input_crc, m.input_size);
    ExpectDigest(extract.carry_out_path, m.carry_crc, m.carry_size);
    carried += m.carried_out;
    carry_in = extract.carry_out_path;
    next_fragment_id = extraction->next_fragment_id;
  }
  EXPECT_GT(carried, 0u) << "the chain must carry records, not only empty "
                            "stores";
  // The two carry stores the run retains are the last two windows' own.
  ExpectDigest(Path("out/.work/carry_00004.wst"), result->windows[3].carry_crc,
               result->windows[3].carry_size);
  ExpectDigest(Path("out/.work/carry_00005.wst"), result->windows[4].carry_crc,
               result->windows[4].carry_size);
}

// A run that commits a window's manifest and dies before that window's
// garbage collection leaves an extra carry store behind; resuming must not
// keep it. Afterwards the work dir lists exactly what an uninterrupted run's
// does, and the published bytes match.
TEST_F(PipelineTest, ResumeLeavesTheWorkDirOfAnUninterruptedRun) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  ASSERT_TRUE(pipeline::RunContinuousPipeline(BaseOptions(source, "ref")).ok());

  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  FailpointRegistry::Instance().ArmErrno("pipeline.manifest_saved", EIO,
                                         /*on_hit=*/3);
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kIoError);
  FailpointRegistry::Instance().DisarmAll();
  for (const std::string& name : ListDir(Path("out/.work"))) {
    EXPECT_EQ(name.rfind("carry_", 0), 0u) << name;
  }
  EXPECT_EQ(ListDir(Path("out/.work")),
            (std::set<std::string>{"carry_00001.wst", "carry_00002.wst",
                                   "carry_00003.wst"}));

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 3u);
  EXPECT_EQ(ListDir(Path("out/.work")), ListDir(Path("ref/.work")));
  EXPECT_EQ(PublishedWindowBytes(Path("out")), PublishedWindowBytes(Path("ref")));
}

TEST_F(PipelineTest, RefusesNonEmptyOutputWithoutResume) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, ResumeAdoptsAllPublishedWindowsWithoutRecompute) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> first =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(first.ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> second =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->resumed_windows, 3u);
  EXPECT_EQ(second->published_fragments, first->published_fragments);
  EXPECT_EQ(second->total_ttd, first->total_ttd);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

TEST_F(PipelineTest, ResumeRecomputesTornLastWindowByteIdentically) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));

  // Tear the final window's output store (truncate) — the CRC check must
  // reject it, adopt windows 0-1 (their carry chain is inside the
  // two-window retention horizon), and recompute only window 2.
  {
    std::ofstream tear(Path("out/window_00002.wst"),
                       std::ios::binary | std::ios::trunc);
    tear << "torn";
  }
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 2u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

TEST_F(PipelineTest, ResumeRecomputesTornMiddleWindowByteIdentically) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));

  // Tear a middle window. Its carry-in store is already past the two-window
  // retention horizon (GC'd when the later windows committed), so resume
  // must walk back to window 0 and recompute everything — trading work,
  // never bytes.
  {
    std::ofstream tear(Path("out/window_00001.wst"),
                       std::ios::binary | std::ios::trunc);
    tear << "torn";
  }
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 0u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

TEST_F(PipelineTest, ResumeSurvivesDeletedWorkDir) {
  // Wiping the scratch directory costs recomputation, never correctness:
  // the carry chain cannot be verified, so the resume walks back to a
  // window it can recompute from scratch and rewrites identical bytes.
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));

  fs::remove_all(Path("out/.work"));
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

TEST_F(PipelineTest, ResumeRejectsConfigMismatch) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());

  options.resume = true;
  options.wcop.seed = 99;  // different anonymization -> different bytes
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, RaisedWindowCapResumesIntoThePrefix) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  options.max_windows = 1;
  Result<pipeline::ContinuousPipelineResult> capped =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->windows.size(), 1u);

  options.max_windows = 0;
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> full =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->resumed_windows, 1u);
  EXPECT_EQ(full->windows.size(), 3u);
}

TEST_F(PipelineTest, InjectedEnospcFailsWithoutRetryPolicy) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  FailpointRegistry::Instance().ArmErrno("store.fsync", ENOSPC, /*on_hit=*/2);
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(PipelineTest, RetryPolicyAbsorbsInjectedEnospc) {
  const std::string source = WriteSource(GroupedDataset());

  // Reference run, then a faulted run into a second directory with a
  // one-shot ENOSPC injected mid-pipeline: the per-window RetryCall must
  // re-run the failed window and still produce byte-identical output.
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "ref");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> expected = PublishedWindowBytes(Path("ref"));

  pipeline::ContinuousPipelineOptions faulted = BaseOptions(source, "out");
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  faulted.publish_retry = &retry;
  FailpointRegistry::Instance().ArmErrno("store.fsync", ENOSPC, /*on_hit=*/2);
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(faulted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PublishedWindowBytes(Path("out")), expected);
}

}  // namespace
}  // namespace wcop
