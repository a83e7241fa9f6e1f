// Windowed publication semantics of the continuous pipeline: the fragment
// size boundary of store::ExtractWindow, fragment provenance, suppression
// accounting across a resume, run-context trips, and option validation.
// Manifest, carry-over and crash-recovery coverage lives in pipeline_test.cc
// and pipeline_chaos_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/run_context.h"
#include "pipeline/continuous.h"
#include "store/store_file.h"
#include "store/window_io.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::PublishedWindowBytes;

namespace fs = std::filesystem;

// Three co-localized lines with `points_each` samples 10 s apart from t = 0,
// all clusterable under k=2, delta=300. Object ids differ from trajectory
// ids so provenance checks can tell the two apart.
std::vector<Trajectory> CoTravellers(size_t points_each) {
  std::vector<Trajectory> trajectories;
  for (int64_t id = 0; id < 3; ++id) {
    Trajectory t = MakeLineWithReq(id, 0.0, 30.0 * static_cast<double>(id),
                                   5.0, 0.0, points_each, /*k=*/2,
                                   /*delta=*/300.0, /*dt=*/10.0);
    t.set_object_id(100 + id);
    trajectories.push_back(std::move(t));
  }
  return trajectories;
}

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("streaming_" + std::string(::testing::UnitTest::GetInstance()
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

  std::string WriteSource(std::vector<Trajectory> trajectories) {
    const std::string path = Path("source.wst");
    EXPECT_TRUE(
        store::WriteDatasetStore(Dataset(std::move(trajectories)), path).ok());
    return path;
  }

  /// Extracts the single window [0, window_end) of `source`.
  Result<store::WindowExtraction> ExtractFirstWindow(const std::string& source,
                                                     double window_end,
                                                     size_t min_points) {
    WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader reader,
                          store::TrajectoryStoreReader::Open(source));
    store::WindowExtractOptions options;
    options.window_start = 0.0;
    options.window_end = window_end;
    options.min_fragment_points = min_points;
    options.window_out_path = Path("window.wst");
    options.carry_out_path = Path("carry.wst");
    return store::ExtractWindow(reader, options);
  }

  pipeline::ContinuousPipelineOptions Options(const std::string& source,
                                              const std::string& out) {
    pipeline::ContinuousPipelineOptions options;
    options.source_store = source;
    options.output_dir = Path(out);
    options.window_seconds = 100.0;
    options.wcop.seed = 7;
    return options;
  }

  fs::path dir_;
};

// Boundary regression: a fragment with *exactly* min_fragment_points must
// be kept (only strictly smaller fragments are suppressed).
TEST_F(StreamingTest, FragmentWithExactlyMinPointsIsKept) {
  // Four samples each, t in [0, 30]: one 40 s window holds all of them.
  const std::string source = WriteSource(CoTravellers(/*points_each=*/4));
  Result<store::WindowExtraction> exact =
      ExtractFirstWindow(source, 40.0, /*min_points=*/4);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->fragments, 3u);
  EXPECT_EQ(exact->suppressed, 0u);

  // One more required point and the same fragments are all suppressed (the
  // trajectories end inside the window, so nothing carries over).
  Result<store::WindowExtraction> stricter =
      ExtractFirstWindow(source, 40.0, /*min_points=*/5);
  ASSERT_TRUE(stricter.ok()) << stricter.status();
  EXPECT_EQ(stricter->fragments, 0u);
  EXPECT_EQ(stricter->carried_out, 0u);
  EXPECT_EQ(stricter->suppressed, 3u);
}

// min_fragment_points = 1 admits single-point fragments; 0 is treated as 1.
TEST_F(StreamingTest, SinglePointFragmentsKeptWhenMinIsOne) {
  const std::string source = WriteSource(CoTravellers(/*points_each=*/1));
  for (const size_t min_points : {size_t{1}, size_t{0}}) {
    Result<store::WindowExtraction> r =
        ExtractFirstWindow(source, 10.0, min_points);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->fragments, 3u) << "min=" << min_points;
    EXPECT_EQ(r->suppressed, 0u) << "min=" << min_points;
  }
}

TEST_F(StreamingTest, PublishedFragmentsLinkToSourceTrajectories) {
  const Dataset d(CoTravellers(/*points_each=*/30));  // three 100 s windows
  const std::string source = WriteSource(d.trajectories());
  Result<pipeline::ContinuousPipelineResult> r =
      pipeline::RunContinuousPipeline(Options(source, "out"));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->windows.size(), 3u);

  std::set<int64_t> sources;
  size_t published = 0;
  for (size_t wi = 0; wi < r->windows.size(); ++wi) {
    char name[64];
    std::snprintf(name, sizeof(name), "out/window_%05zu.wst", wi);
    Result<store::TrajectoryStoreReader> window =
        store::TrajectoryStoreReader::Open(Path(name));
    ASSERT_TRUE(window.ok()) << window.status();
    for (size_t i = 0; i < window->size(); ++i) {
      Result<Trajectory> fragment = window->Read(i);
      ASSERT_TRUE(fragment.ok()) << fragment.status();
      const Trajectory* parent = d.FindById(fragment->parent_id());
      ASSERT_NE(parent, nullptr) << "window " << wi << " fragment " << i;
      EXPECT_EQ(fragment->object_id(), parent->object_id());
      sources.insert(fragment->parent_id());
      ++published;
    }
  }
  EXPECT_EQ(published, r->published_fragments);
  EXPECT_GT(sources.size(), 1u);
}

// Resume regression: the suppression count of an adopted window comes back
// from its manifest, so an interrupted-and-resumed stream reports the same
// accounting as an uninterrupted one.
TEST_F(StreamingTest, SuppressedAccountingSurvivesResume) {
  // Three healthy co-travellers over [0, 290] plus a single-point straggler
  // in window 0 — suppressed there, and counted in window 0's manifest.
  std::vector<Trajectory> trajectories = CoTravellers(/*points_each=*/30);
  Trajectory straggler =
      MakeLineWithReq(3, 0.0, 90.0, 5.0, 0.0, /*n=*/1, /*k=*/2,
                      /*delta=*/300.0, /*dt=*/10.0);
  straggler.set_object_id(103);
  trajectories.push_back(std::move(straggler));
  const std::string source = WriteSource(std::move(trajectories));

  Result<pipeline::ContinuousPipelineResult> baseline =
      pipeline::RunContinuousPipeline(Options(source, "ref"));
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(baseline->suppressed_fragments, 0u);

  {
    // Fail the run right after window 0 commits — the in-process analogue
    // of a crash between windows.
    ScopedFailpoint fp("pipeline.manifest_saved",
                       Status::Internal("simulated crash"), /*max_fires=*/1);
    EXPECT_EQ(pipeline::RunContinuousPipeline(Options(source, "out"))
                  .status()
                  .code(),
              StatusCode::kInternal);
  }
  pipeline::ContinuousPipelineOptions options = Options(source, "out");
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 1u);
  EXPECT_EQ(resumed->suppressed_fragments, baseline->suppressed_fragments);
  EXPECT_EQ(resumed->published_fragments, baseline->published_fragments);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), PublishedWindowBytes(Path("ref")));
}

// A tripped run context stops the stream before any window commits, with
// or without partial results; a later resume converges to the
// uninterrupted output, byte for byte.
TEST_F(StreamingTest, ExpiredDeadlineCommitsNoWindowAndResumeConverges) {
  const std::string source = WriteSource(CoTravellers(/*points_each=*/30));
  ASSERT_TRUE(pipeline::RunContinuousPipeline(Options(source, "ref")).ok());
  const std::map<std::string, std::string> expected = PublishedWindowBytes(Path("ref"));
  ASSERT_FALSE(expected.empty());

  for (const bool allow_partial : {false, true}) {
    SCOPED_TRACE(allow_partial ? "partial results" : "no partial results");
    RunContext expired;
    expired.set_deadline(RunContext::Clock::now());
    pipeline::ContinuousPipelineOptions options = Options(source, "out");
    options.wcop.run_context = &expired;
    options.wcop.allow_partial_results = allow_partial;
    Result<pipeline::ContinuousPipelineResult> r =
        pipeline::RunContinuousPipeline(options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status();
    EXPECT_FALSE(fs::exists(Path("out/window_journal.jnl")));
  }

  pipeline::ContinuousPipelineOptions options = Options(source, "out");
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 0u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), expected);
}

TEST_F(StreamingTest, RejectsBadOptions) {
  const std::string source = WriteSource(CoTravellers(/*points_each=*/30));
  pipeline::ContinuousPipelineOptions zero_width = Options(source, "out");
  zero_width.window_seconds = 0.0;
  EXPECT_EQ(pipeline::RunContinuousPipeline(zero_width).status().code(),
            StatusCode::kInvalidArgument);

  const std::string empty = Path("empty.wst");
  ASSERT_TRUE(store::WriteDatasetStore(Dataset(), empty).ok());
  EXPECT_EQ(
      pipeline::RunContinuousPipeline(Options(empty, "out")).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wcop
