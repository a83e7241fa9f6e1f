// Unit and in-process integration tests of the continuous publication
// pipeline: the window-iterator core, out-of-core window extraction with
// carry-over, the journal record codec and the journal, and the engine's
// publish / resume / refuse / retry semantics. Process-kill coverage lives
// in pipeline_chaos_test.cc.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/retry.h"
#include "common/snapshot.h"
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

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The valid prefix of the window journal in output directory `dir`.
std::vector<pipeline::WindowRecord> JournalRecords(const std::string& dir) {
  std::vector<pipeline::WindowRecord> records;
  const Status read =
      pipeline::WindowJournal(dir + "/" +
                              std::string(pipeline::kWindowJournalName))
          .Read(&records);
  EXPECT_TRUE(read.ok()) << read;
  return records;
}

/// The binary store records of `trajectories`, concatenated: equal bytes
/// mean bit-identical ids, requirements and points.
std::string RecordBytes(const std::vector<Trajectory>& trajectories) {
  std::string bytes;
  for (const Trajectory& t : trajectories) {
    store::AppendTrajectoryRecord(&bytes, t);
  }
  return bytes;
}

Result<std::vector<Trajectory>> ReadStore(const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader reader,
                        store::TrajectoryStoreReader::Open(path));
  WCOP_ASSIGN_OR_RETURN(Dataset dataset, reader.ReadAll());
  return dataset.trajectories();
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

// The carry travels in memory (the pipeline's path) exactly as it does
// through carry stores: the same merged fragments, digests and carry
// records, window after window.
TEST_F(PipelineTest, ExtractWindowCarriesInMemoryAsThroughStores) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok());

  std::vector<Trajectory> carry;
  std::string carry_path;
  int64_t next_fragment_id = 0;
  size_t carried = 0;
  for (size_t wi = 0; wi < 5; ++wi) {
    SCOPED_TRACE(wi);
    store::WindowExtractOptions memory;
    memory.window_start = 100.0 * static_cast<double>(wi);
    memory.window_end = memory.window_start + 100.0;
    memory.next_fragment_id = next_fragment_id;
    memory.carry_in = carry;
    store::WindowExtractOptions files = memory;
    files.carry_in.clear();
    files.carry_in_path = carry_path;
    files.carry_out_path = Path(WindowName(wi, ".carry.wst"));
    Result<store::WindowExtraction> a = ExtractWindow(*reader, memory);
    Result<store::WindowExtraction> b = ExtractWindow(*reader, files);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->input.crc, b->input.crc);
    EXPECT_EQ(a->input.size, b->input.size);
    EXPECT_EQ(RecordBytes(a->trajectories), RecordBytes(b->trajectories));
    EXPECT_EQ(a->carried_in, b->carried_in);
    EXPECT_EQ(a->carried_out, a->carry.size());
    EXPECT_EQ(RecordBytes(a->carry), RecordBytes(b->carry));
    Result<std::vector<Trajectory>> stored = ReadStore(files.carry_out_path);
    ASSERT_TRUE(stored.ok()) << stored.status();
    EXPECT_EQ(RecordBytes(*stored), RecordBytes(a->carry));
    carried += a->carried_out;
    carry = std::move(a->carry);
    carry_path = files.carry_out_path;
    next_fragment_id = a->next_fragment_id;
  }
  EXPECT_GT(carried, 0u);
  // No path, no file: the in-memory extraction writes nothing.
  EXPECT_EQ(ListDir(dir_.string()).size(), 6u);  // source + 5 carry stores
}

// ---------------------------------------------------------------------------
// Journal record codec and the journal.
// ---------------------------------------------------------------------------

pipeline::WindowRecord SampleRecord() {
  pipeline::WindowRecord record;
  pipeline::WindowManifest& m = record.manifest;
  m.config_fingerprint = 0xdeadbeefcafef00dULL;
  m.window_index = 41;
  m.window_start = 0.1;  // not exactly representable: %.17g must round-trip
  m.window_end = 1e9 + 0.25;
  m.input_fragments = 7;
  m.published_fragments = 5;
  m.suppressed_delta = 2;
  m.carried_in = 1;
  m.carried_out = 2;
  m.clusters = 2;
  m.ttd = 12345.6789;
  m.skipped = true;
  m.degraded = true;
  m.next_fragment_id = -9;
  m.input_crc = 1;
  m.input_size = 2;
  m.output_crc = 3;
  m.output_size = 4;
  // A carry record whose first byte is whitespace (id 32 = ' '), and one
  // with a single point: the decoder must not skip into the binary part.
  record.carry.push_back(MakeLineWithReq(32, 0.1, 0.2, 1.0, 0.0, 1, 3, 50.0,
                                         10.0, 90.0));
  record.carry.push_back(MakeLineWithReq(7, -5.0, 3.0, 1.0, 1.0, 3, 2, 120.0,
                                         10.0, 170.0));
  return record;
}

TEST_F(PipelineTest, RecordRoundTripsExactly) {
  const pipeline::WindowRecord record = SampleRecord();
  const std::string encoded = pipeline::EncodeWindowRecord(record);
  Result<pipeline::WindowRecord> decoded =
      pipeline::DecodeWindowRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(pipeline::EncodeWindowRecord(*decoded), encoded);
  EXPECT_EQ(decoded->manifest.window_start, record.manifest.window_start);
  EXPECT_EQ(decoded->manifest.next_fragment_id, -9);
  EXPECT_TRUE(decoded->manifest.skipped);
  EXPECT_EQ(RecordBytes(decoded->carry), RecordBytes(record.carry));
  EXPECT_EQ(decoded->carry[0].requirement().k, 3);
}

// %.17g prints every double so that strtod reads back the same bits, but
// glibc's strtod flags subnormals with ERANGE: a decoder that rejects on
// errno would read such a committed record as torn and recompute its window.
TEST_F(PipelineTest, RecordRoundTripsSubnormalSignedZeroAndInfiniteDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double cases[][3] = {
      {denorm_min, 1e-310, -0.0},
      {-inf, inf, -denorm_min},
      {-0.0, denorm_min, inf},
  };
  const auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (const auto& values : cases) {
    pipeline::WindowRecord record = SampleRecord();
    record.manifest.window_start = values[0];
    record.manifest.window_end = values[1];
    record.manifest.ttd = values[2];
    const std::string encoded = pipeline::EncodeWindowRecord(record);
    Result<pipeline::WindowRecord> decoded =
        pipeline::DecodeWindowRecord(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status() << "\n" << encoded;
    EXPECT_EQ(bits(decoded->manifest.window_start), bits(values[0]));
    EXPECT_EQ(bits(decoded->manifest.window_end), bits(values[1]));
    EXPECT_EQ(bits(decoded->manifest.ttd), bits(values[2]));
    EXPECT_EQ(pipeline::EncodeWindowRecord(*decoded), encoded);
  }
}

TEST_F(PipelineTest, RecordDecodeFailuresAreDataLoss) {
  EXPECT_EQ(pipeline::DecodeWindowRecord("").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(pipeline::DecodeWindowRecord("not-a-manifest 1 2 3")
                .status()
                .code(),
            StatusCode::kDataLoss);
  std::string truncated = pipeline::EncodeWindowRecord(SampleRecord());
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(pipeline::DecodeWindowRecord(truncated).status().code(),
            StatusCode::kDataLoss);
  // carried_out says two, the carry section holds one.
  pipeline::WindowRecord short_carry = SampleRecord();
  short_carry.carry.pop_back();
  EXPECT_EQ(pipeline::DecodeWindowRecord(
                pipeline::EncodeWindowRecord(short_carry))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// Appending a window's record again replaces it and everything after it:
// a retried window never leaves a duplicate, and the file equals one
// written once.
TEST_F(PipelineTest, JournalAppendReplacesTheRecordsFromItsWindowOn) {
  const std::string path = Path("journal");
  std::vector<pipeline::WindowRecord> written;
  for (uint64_t wi = 0; wi < 3; ++wi) {
    pipeline::WindowRecord record = SampleRecord();
    record.manifest.window_index = wi;
    record.manifest.clusters = wi;
    written.push_back(record);
  }
  std::vector<pipeline::WindowRecord> read;
  {
    pipeline::WindowJournal once(Path("once"));
    ASSERT_TRUE(once.Read(&read).ok());
    EXPECT_TRUE(read.empty());
    EXPECT_FALSE(fs::exists(Path("once"))) << "reading must not create it";
    for (const pipeline::WindowRecord& record : written) {
      ASSERT_TRUE(once.Append(record).ok());
    }
  }
  {
    pipeline::WindowJournal journal(path);
    ASSERT_TRUE(journal.Append(written[0]).ok());
    ASSERT_TRUE(journal.Append(written[1]).ok());
    ASSERT_TRUE(journal.Append(written[2]).ok());
    ASSERT_TRUE(journal.Append(written[1]).ok());  // cuts 1 and 2
    ASSERT_TRUE(pipeline::WindowJournal(path).Read(&read).ok());
    EXPECT_EQ(read.size(), 2u);
    ASSERT_TRUE(journal.Append(written[2]).ok());
    EXPECT_EQ(ReadBytes(path), ReadBytes(Path("once")));
    // A record may not leave a gap.
    pipeline::WindowRecord gap = SampleRecord();
    gap.manifest.window_index = 5;
    EXPECT_FALSE(journal.Append(gap).ok());
  }

  ASSERT_TRUE(pipeline::WindowJournal(path).Read(&read).ok());
  ASSERT_EQ(read.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pipeline::EncodeWindowRecord(read[i]),
              pipeline::EncodeWindowRecord(written[i]));
  }
}

// A failed append (here, between a record's header and its payload) cuts
// the file back, so the journal keeps only whole records.
TEST_F(PipelineTest, JournalFailedAppendLeavesOnlyWholeRecords) {
  const std::string path = Path("journal");
  pipeline::WindowJournal journal(path);
  pipeline::WindowRecord record = SampleRecord();
  record.manifest.window_index = 0;
  ASSERT_TRUE(journal.Append(record).ok());
  const std::string one = ReadBytes(path);
  record.manifest.window_index = 1;
  for (const char* site :
       {"snapshot.write", "snapshot.write_payload", "snapshot.fsync"}) {
    SCOPED_TRACE(site);
    FailpointRegistry::Instance().ArmErrno(site, ENOSPC);
    EXPECT_EQ(journal.Append(record).code(), StatusCode::kIoError);
    FailpointRegistry::Instance().DisarmAll();
    EXPECT_EQ(ReadBytes(path), one);
  }
  ASSERT_TRUE(journal.Append(record).ok());
  std::vector<pipeline::WindowRecord> read;
  ASSERT_TRUE(pipeline::WindowJournal(path).Read(&read).ok());
  EXPECT_EQ(read.size(), 2u);
}

// ---------------------------------------------------------------------------
// The engine: publish, resume, refuse, retry.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PublishesEveryWindowWithValidJournalRecords) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->windows_total, 3u);
  EXPECT_EQ(result->resumed_windows, 0u);
  ASSERT_EQ(result->windows.size(), 3u);
  EXPECT_GT(result->published_fragments, 0u);

  const std::vector<pipeline::WindowRecord> records =
      JournalRecords(Path("out"));
  ASSERT_EQ(records.size(), 3u);
  for (size_t wi = 0; wi < 3; ++wi) {
    SCOPED_TRACE(wi);
    const std::string store_path = Path("out/" + WindowName(wi, ".wst"));
    const pipeline::WindowManifest& manifest = records[wi].manifest;
    EXPECT_EQ(manifest.window_index, wi);
    EXPECT_EQ(pipeline::EncodeWindowRecord(records[wi]),
              pipeline::EncodeWindowRecord(
                  {result->windows[wi], records[wi].carry}));
    // The published store's bytes match the digest the record committed.
    ExpectDigest(store_path, manifest.output_crc, manifest.output_size);
    // And the store itself opens and holds the published fragments.
    Result<store::TrajectoryStoreReader> window =
        store::TrajectoryStoreReader::Open(store_path);
    ASSERT_TRUE(window.ok());
    EXPECT_EQ(window->size(), manifest.published_fragments);
  }
}

// Every digest a record holds names real bytes, although the pipeline
// reads none of them back: the output digest equals DigestFile of the
// window store, the input digest that of the store ExtractWindow writes for
// the window when given a path, and the committed carry equals the carry
// store ExtractWindow writes when given one.
TEST_F(PipelineTest, JournalRecordsMatchTheBytesTheyName) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(BaseOptions(source, "out"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->windows.size(), 5u);
  const std::vector<pipeline::WindowRecord> records =
      JournalRecords(Path("out"));
  ASSERT_EQ(records.size(), 5u);
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok()) << reader.status();

  std::string carry_in;
  int64_t next_fragment_id = 0;
  uint64_t carried = 0;
  for (size_t wi = 0; wi < records.size(); ++wi) {
    SCOPED_TRACE(wi);
    const pipeline::WindowManifest& m = records[wi].manifest;
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
    Result<std::vector<Trajectory>> stored =
        ReadStore(extract.carry_out_path);
    ASSERT_TRUE(stored.ok()) << stored.status();
    EXPECT_EQ(stored->size(), m.carried_out);
    EXPECT_EQ(RecordBytes(*stored), RecordBytes(records[wi].carry));
    carried += m.carried_out;
    carry_in = extract.carry_out_path;
    next_fragment_id = extraction->next_fragment_id;
  }
  EXPECT_GT(carried, 0u) << "the chain must carry records, not only empty "
                            "stores";
}

// Each window creates one file, its store; the journal is the only other
// file. A run that dies after a commit and resumes leaves the directory an
// uninterrupted run leaves, byte for byte.
TEST_F(PipelineTest, ResumeLeavesWhatAnUninterruptedRunLeaves) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  ASSERT_TRUE(pipeline::RunContinuousPipeline(BaseOptions(source, "ref")).ok());
  EXPECT_EQ(ListDir(Path("ref")),
            (std::set<std::string>{"window_00000.wst", "window_00001.wst",
                                   "window_00002.wst", "window_00003.wst",
                                   "window_00004.wst", "window_journal.jnl"}));

  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  FailpointRegistry::Instance().ArmErrno("pipeline.manifest_saved", EIO,
                                         /*on_hit=*/3);
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kIoError);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(ListDir(Path("out")),
            (std::set<std::string>{"window_00000.wst", "window_00001.wst",
                                   "window_00002.wst", "window_journal.jnl"}));

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 3u);
  EXPECT_EQ(ListDir(Path("out")), ListDir(Path("ref")));
  EXPECT_EQ(PublishedWindowBytes(Path("out")), PublishedWindowBytes(Path("ref")));
}

TEST_F(PipelineTest, RefusesAPublishedDirectoryWithoutResume) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kFailedPrecondition);
  // The first manifest of the older per-window layout refuses as well.
  fs::create_directories(Path("old"));
  ASSERT_TRUE(
      WriteSnapshotFile(Path("old/window_00000.mfr"), "manifest", 1).ok());
  EXPECT_EQ(pipeline::RunContinuousPipeline(BaseOptions(source, "old"))
                .status()
                .code(),
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
  // reject it, adopt windows 0-1 and recompute only window 2.
  WriteBytes(Path("out/window_00002.wst"), "torn");
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 2u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

TEST_F(PipelineTest, ResumeRecomputesTornMiddleWindowFromItself) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));
  ASSERT_FALSE(JournalRecords(Path("out"))[0].carry.empty())
      << "the torn window must consume a carry for this test to bite";

  // Tear a middle window. Its carry-in is in the record before it, so the
  // resume recomputes from the torn window itself, not from window 0.
  WriteBytes(Path("out/window_00001.wst"), "torn");
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 1u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

// A torn journal tail (a crash mid-append) is cut before the first append:
// the torn window recomputes and the journal ends up byte-identical.
TEST_F(PipelineTest, ResumeCutsATornJournalTail) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));

  const std::string journal = Path("out/window_journal.jnl");
  const std::string bytes = ReadBytes(journal);
  WriteBytes(journal, bytes.substr(0, bytes.size() - 5));
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 4u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);

  // A tail of garbage after whole records is cut the same way.
  WriteBytes(Path("out/window_00004.wst"), "torn");
  WriteBytes(journal, ReadBytes(journal) + "garbage");
  resumed = pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 4u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

// A bit flip inside a middle record fails its CRC: the windows before it
// are adopted and the run recomputes from that window, not from window 0.
TEST_F(PipelineTest, ResumeRecomputesFromABitFlippedMiddleRecord) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedWindowBytes(Path("out"));

  const std::string journal = Path("out/window_journal.jnl");
  std::string bytes = ReadBytes(journal);
  Result<SnapshotRecord> first = ParseSnapshotRecord(bytes, 0);
  Result<SnapshotRecord> second = ParseSnapshotRecord(bytes, first->end);
  ASSERT_TRUE(second.ok()) << second.status();
  bytes[first->end + kSnapshotHeaderSize + 10] ^= 0x04;  // record 1's payload
  WriteBytes(journal, bytes);

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 1u);
  EXPECT_EQ(PublishedWindowBytes(Path("out")), published);
}

// A directory of the older layout (per-window `.mfr` manifests and a
// `.work` carry directory, no journal) has nothing to adopt: the run
// recomputes from window 0 and publishes the same window stores.
TEST_F(PipelineTest, ResumeOverTheOldLayoutRecomputesFromWindowZero) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  ASSERT_TRUE(pipeline::RunContinuousPipeline(BaseOptions(source, "ref")).ok());
  fs::create_directories(Path("out/.work"));
  for (size_t wi = 0; wi < 5; ++wi) {
    fs::copy_file(Path("ref/" + WindowName(wi, ".wst")),
                  Path("out/" + WindowName(wi, ".wst")));
    ASSERT_TRUE(WriteSnapshotFile(Path("out/" + WindowName(wi, ".mfr")),
                                  "wcop-window-manifest", 1)
                    .ok());
  }
  ASSERT_TRUE(
      store::WriteDatasetStore(Dataset(), Path("out/.work/carry_00001.wst"))
          .ok());

  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 0u);
  std::map<std::string, std::string> bytes = PublishedWindowBytes(Path("out"));
  for (size_t wi = 0; wi < 5; ++wi) {
    bytes.erase(WindowName(wi, ".mfr"));  // left as the older run wrote them
  }
  EXPECT_EQ(bytes, PublishedWindowBytes(Path("ref")));
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

// A window whose commit fails after its record landed (manifest_saved), or
// midway through the record (write_payload), is retried whole; the retry
// replaces the record instead of appending a second one.
TEST_F(PipelineTest, RetriedCommitsLeaveNoDuplicateRecord) {
  const std::string source = WriteSource(StaggeredGroupedDataset());
  ASSERT_TRUE(pipeline::RunContinuousPipeline(BaseOptions(source, "ref")).ok());
  const std::map<std::string, std::string> expected =
      PublishedWindowBytes(Path("ref"));
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  for (const char* site : {"pipeline.manifest_saved",
                           "snapshot.write_payload", "snapshot.fsync"}) {
    SCOPED_TRACE(site);
    const std::string out = std::string("out_") + site;
    pipeline::ContinuousPipelineOptions options = BaseOptions(source, out);
    options.publish_retry = &retry;
    FailpointRegistry::Instance().ArmErrno(site, ENOSPC, /*on_hit=*/2);
    Result<pipeline::ContinuousPipelineResult> result =
        pipeline::RunContinuousPipeline(options);
    FailpointRegistry::Instance().DisarmAll();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(JournalRecords(Path(out)).size(), 5u);
    EXPECT_EQ(PublishedWindowBytes(Path(out)), expected);
  }
}

}  // namespace
}  // namespace wcop
