// Robustness: the file parsers and the store, manifest and shard checkpoint
// decoders must never crash or loop on malformed input — they fail with a
// Status or skip garbage records gracefully —
// and the anonymization pipeline must survive adversarial datasets
// (non-finite coordinates, broken timelines, degenerate trajectories)
// by returning a non-OK Status or a structurally valid result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/telemetry.h"
#include "data/geolife_parser.h"
#include "pipeline/manifest.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "test_util.h"
#include "traj/io.h"

namespace wcop {
namespace {

namespace fs = std::filesystem;

class FuzzRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "wcop_fuzz";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WriteBytes(const std::string& name, const std::string& bytes) {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    return path.string();
  }

  fs::path dir_;
};

std::string RandomBytes(Rng* rng, size_t n, bool printable) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(printable
                      ? static_cast<char>(rng->UniformInt(32, 126))
                      : static_cast<char>(rng->UniformInt(0, 255)));
  }
  return out;
}

TEST_F(FuzzRobustnessTest, PltParserSurvivesRandomBytes) {
  const LocalProjection proj(39.9057, 116.3913);
  Rng rng(101);
  for (int round = 0; round < 40; ++round) {
    const std::string path = WriteBytes(
        "fuzz_" + std::to_string(round) + ".plt",
        RandomBytes(&rng, 64 + rng.UniformIndex(2048), round % 2 == 0));
    // Must return (any status) without crashing; a parsed result must be
    // structurally valid.
    Result<Trajectory> r = ParsePltFile(path, proj);
    if (r.ok()) {
      EXPECT_TRUE(r->Validate().ok());
    }
  }
}

TEST_F(FuzzRobustnessTest, CsvReaderSurvivesRandomBytes) {
  Rng rng(202);
  for (int round = 0; round < 40; ++round) {
    const std::string path = WriteBytes(
        "fuzz_" + std::to_string(round) + ".csv",
        RandomBytes(&rng, 64 + rng.UniformIndex(2048), round % 2 == 0));
    Result<Dataset> r = ReadDatasetCsv(path);
    if (r.ok()) {
      EXPECT_TRUE(r->Validate().ok());
    }
  }
}

TEST_F(FuzzRobustnessTest, CsvReaderSurvivesTruncatedValidFile) {
  // A valid file cut at every prefix length must parse or error cleanly.
  const std::string full =
      "traj_id,object_id,parent_id,k,delta,x,y,t\n"
      "1,2,-1,3,100.5,10.25,20.5,1000\n"
      "1,2,-1,3,100.5,11.25,21.5,1010\n"
      "2,3,-1,2,50.0,0,0,5\n"
      "2,3,-1,2,50.0,1,1,6\n";
  for (size_t len = 0; len <= full.size(); len += 7) {
    const std::string path =
        WriteBytes("trunc_" + std::to_string(len) + ".csv",
                   full.substr(0, len));
    Result<Dataset> r = ReadDatasetCsv(path);
    if (r.ok()) {
      EXPECT_TRUE(r->Validate().ok());
    }
  }
}

TEST_F(FuzzRobustnessTest, PltParserSurvivesPathologicalNumbers) {
  const LocalProjection proj(39.9057, 116.3913);
  const std::string path = WriteBytes(
      "patho.plt",
      "90.0,180.0,0,0,1e308,x,y\n"
      "-90.0,-180.0,0,0,-1e308,x,y\n"
      "nan,inf,0,0,nan,x,y\n"
      "1e-320,5,0,0,39745.2,2008-10-24,04:48:00\n"
      "39.9,116.4,0,0,39745.3,2008-10-24,07:12:00\n"
      "39.91,116.41,0,0,39745.4,2008-10-24,09:36:00\n");
  Result<Trajectory> r = ParsePltFile(path, proj);
  if (r.ok()) {
    EXPECT_TRUE(r->Validate().ok());  // non-finite points must not survive
  }
}

// ---------------------------------------------------------------------------
// Store decoder (.wst): seeded mutations of a valid store. Whatever the
// bytes, Open() and Read() return a Status — they never crash or throw —
// and what they accept is bounded by the file: index rows, points and block
// sizes (everything the reader allocates for) fit inside it. Plain
// corruption (bit flips, truncation, appended bytes) is caught by the CRCs
// and markers, so a block that still reads is bit-identical to the
// original. "CRC-repaired" mutations edit header, index and block fields
// and then recompute both CRCs, so they reach the structural checks: a
// block read from those is valid and agrees with its index row.
// ---------------------------------------------------------------------------

namespace wst = testing_util::wst;
using testing_util::DoubleBits;

bool SameTrajectory(const Trajectory& a, const Trajectory& b) {
  if (a.id() != b.id() || a.object_id() != b.object_id() ||
      a.parent_id() != b.parent_id() ||
      a.requirement().k != b.requirement().k ||
      DoubleBits(a.requirement().delta) !=
          DoubleBits(b.requirement().delta) ||
      a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (DoubleBits(a[i].x) != DoubleBits(b[i].x) ||
        DoubleBits(a[i].y) != DoubleBits(b[i].y) ||
        DoubleBits(a[i].t) != DoubleBits(b[i].t)) {
      return false;
    }
  }
  return true;
}

// Opens and fully reads the store image `bytes`, checking the contract
// above; `original` (when not null) is the dataset every accepted block
// must reproduce exactly. Returns how many blocks read back.
size_t DecodeStoreImage(const std::string& path, const std::string& bytes,
                        const Dataset* original) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(path);
  if (!reader.ok()) {
    EXPECT_FALSE(reader.status().message().empty());
    return 0;
  }
  EXPECT_LE(reader->size(), bytes.size() / wst::kEntrySize);
  EXPECT_LE(reader->total_points(), bytes.size() / 24);
  size_t read = 0;
  for (size_t i = 0; i < reader->size(); ++i) {
    const store::StoreEntry& e = reader->index()[i];
    EXPECT_LE(e.block_size, bytes.size());
    Result<Trajectory> t = reader->Read(i);
    if (!t.ok()) {
      EXPECT_EQ(t.status().code(), StatusCode::kDataLoss) << t.status();
      continue;
    }
    ++read;
    EXPECT_TRUE(t->Validate().ok());
    EXPECT_EQ(t->id(), e.id);
    EXPECT_EQ(t->size(), e.num_points);
    EXPECT_EQ(t->requirement().k, e.k);
    EXPECT_EQ(DoubleBits(t->requirement().delta), DoubleBits(e.delta));
    if (original != nullptr) {
      EXPECT_LT(i, original->size());
      if (i < original->size()) {
        EXPECT_TRUE(SameTrajectory(*t, (*original)[i])) << "block " << i;
      }
    }
  }
  return read;
}

// Values that stress the reader's arithmetic: zero, small counts, the
// original value nudged by a field width, and the u64/i64/double extremes.
uint64_t InterestingValue(Rng* rng, uint64_t original) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const uint64_t values[] = {
      0,
      1,
      original + 1,
      original - 1,
      original + 8,
      original - 8,
      original + 24,
      original - 24,
      original * 2,
      uint64_t{1} << 31,
      uint64_t{1} << 32,
      uint64_t{1} << 63,
      UINT64_MAX,
      UINT64_MAX - 7,
      UINT64_MAX / 24 + 1,
      DoubleBits(nan),
      DoubleBits(inf),
      DoubleBits(-inf),
      DoubleBits(-0.0),
      DoubleBits(std::numeric_limits<double>::max()),
      static_cast<uint64_t>(rng->engine()()),
  };
  return values[rng->UniformIndex(sizeof(values) / sizeof(values[0]))];
}

class StoreFuzzTest : public FuzzRobustnessTest {
 protected:
  void SetUp() override {
    FuzzRobustnessTest::SetUp();
    dataset_ = testing_util::SmallSynthetic(6, 12);
    path_ = (dir_ / "fuzz.wst").string();
    ASSERT_TRUE(store::WriteDatasetStore(dataset_, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    good_.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    // The clean image decodes completely: the baseline of every mutation.
    ASSERT_EQ(DecodeStoreImage(path_, good_, &dataset_), dataset_.size());
  }

  Dataset dataset_;
  std::string path_;
  std::string good_;
};

TEST_F(StoreFuzzTest, BitFlipsAreRejectedOrExact) {
  Rng rng(303);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = good_;
    const size_t flips = 1 + rng.UniformIndex(8);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.UniformIndex(bytes.size())] ^=
          static_cast<char>(1u << rng.UniformIndex(8));
    }
    DecodeStoreImage(path_, bytes, &dataset_);
  }
}

TEST_F(StoreFuzzTest, TruncationsAndAppendedBytesAreRejected) {
  Rng rng(404);
  for (int round = 0; round < 100; ++round) {
    const std::string cut = good_.substr(0, rng.UniformIndex(good_.size()));
    EXPECT_EQ(DecodeStoreImage(path_, cut, &dataset_), 0u) << cut.size();
    const std::string longer =
        good_ + RandomBytes(&rng, 1 + rng.UniformIndex(64), round % 2 == 0);
    EXPECT_EQ(DecodeStoreImage(path_, longer, &dataset_), 0u);
  }
}

TEST_F(StoreFuzzTest, CrcRepairedFieldEditsReachStructuralChecks) {
  Rng rng(505);
  const size_t count = wst::EntryCount(good_);
  std::vector<size_t> blocks;
  for (size_t i = 0; i < count; ++i) {
    blocks.push_back(wst::BlockAt(good_, i));
  }
  size_t rejected = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string bytes = good_;
    const size_t edits = 1 + rng.UniformIndex(3);
    for (size_t n = 0; n < edits; ++n) {
      const size_t i = rng.UniformIndex(count);
      size_t at = 0;
      switch (rng.UniformIndex(6)) {
        case 0:  // file header: version and reserved word
          at = 8;
          break;
        case 1:  // footer: the index offset
          at = bytes.size() - 16;
          break;
        case 2:  // index: the entry count
          at = wst::IndexOffset(good_) + 8;
          break;
        case 3:  // index: any field of any entry
          at = wst::EntryFieldAt(good_, i, rng.UniformIndex(13));
          break;
        case 4:  // block: the u32 size | u32 CRC framing, or a record field
          at = rng.UniformIndex(2) == 0
                   ? blocks[i]
                   : wst::RecordFieldAt(blocks[i], rng.UniformIndex(6));
          break;
        default:  // block: any coordinate of any point
          at = wst::PointAt(blocks[i], rng.UniformIndex(dataset_[i].size()),
                            rng.UniformIndex(3));
          break;
      }
      wst::PutU64(&bytes, at, InterestingValue(&rng, wst::GetU64(bytes, at)));
    }
    for (const size_t block : blocks) {
      wst::RepairBlockCrc(&bytes, block);
    }
    wst::RepairIndexCrc(&bytes);
    if (DecodeStoreImage(path_, bytes, nullptr) < count) {
      ++rejected;
    }
  }
  // Most edits must actually be caught, or the mutations are not reaching
  // the checks they are meant to exercise.
  EXPECT_GT(rejected, 1000u);
}

// ---------------------------------------------------------------------------
// Window manifest (`.mfr`) decoder. Every mutated payload is re-sealed in a
// valid snapshot envelope, so it reaches DecodeWindowManifest instead of
// failing the envelope's CRC. Contract: kDataLoss, or a record that
// round-trips through the codec; never a crash (the asan-ubsan leg runs it).
// ---------------------------------------------------------------------------

class ManifestFuzzTest : public FuzzRobustnessTest {
 protected:
  void SetUp() override {
    FuzzRobustnessTest::SetUp();
    pipeline::WindowManifest m;
    m.config_fingerprint = 0x9e3779b97f4a7c15ULL;
    m.window_index = 17;
    m.window_start = 0.1;
    m.window_end = 1e9 + 0.25;
    m.input_fragments = 40;
    m.published_fragments = 37;
    m.suppressed_delta = 3;
    m.carried_in = 2;
    m.carried_out = 5;
    m.clusters = 11;
    m.ttd = 12345.678;
    m.degraded = true;
    m.next_fragment_id = 1234;
    m.input_crc = 0xdeadbeef;
    m.input_size = 98765;
    m.output_crc = 7;
    m.output_size = 43210;
    m.carry_crc = 0xffffffff;
    m.carry_size = 16;
    good_ = pipeline::EncodeWindowManifest(m);
    path_ = (dir_ / "fuzz.mfr").string();
    // Token boundaries of the clean payload: the marker, then 20 fields.
    for (size_t pos = 0; pos < good_.size(); ++pos) {
      if (good_[pos] != ' ' && good_[pos] != '\n' &&
          (pos == 0 || good_[pos - 1] == ' ')) {
        token_starts_.push_back(pos);
      }
    }
    ASSERT_EQ(token_starts_.size(), 21u);
    ASSERT_TRUE(Decode(good_));
  }

  /// Seals `payload`, reads it back as a manifest and checks the contract.
  /// Returns whether the record was accepted.
  bool Decode(const std::string& payload) {
    EXPECT_TRUE(WriteSnapshotFile(path_, payload,
                                  pipeline::kWindowManifestVersion)
                    .ok());
    Result<pipeline::WindowManifest> m = pipeline::ReadWindowManifest(path_);
    if (!m.ok()) {
      EXPECT_EQ(m.status().code(), StatusCode::kDataLoss) << m.status();
      return false;
    }
    const std::string encoded = pipeline::EncodeWindowManifest(*m);
    Result<pipeline::WindowManifest> again =
        pipeline::DecodeWindowManifest(encoded);
    EXPECT_TRUE(again.ok()) << again.status();
    if (again.ok()) {
      EXPECT_EQ(pipeline::EncodeWindowManifest(*again), encoded);
    }
    return true;
  }

  std::string good_;
  std::string path_;
  std::vector<size_t> token_starts_;
};

TEST_F(ManifestFuzzTest, TruncationsAreRejectedUntilTheLastField) {
  // Any cut before the last field's first digit drops a field.
  for (size_t cut = 0; cut <= good_.size(); ++cut) {
    const bool accepted = Decode(good_.substr(0, cut));
    if (cut <= token_starts_.back()) {
      EXPECT_FALSE(accepted) << "cut " << cut;
    }
  }
}

TEST_F(ManifestFuzzTest, SeededMutationsAreRejectedOrRoundTrip) {
  Rng rng(606);
  const std::vector<std::string> tokens = {
      "", "0", "-1", "+7", "-0", "1.5", "12abc", "0x10", "nan", "-nan",
      "inf", "-inf", "1e309", "-1e309", "1e-320", "4294967296",
      "9223372036854775807", "9223372036854775808", "-9223372036854775809",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999999999999999", "wcop-window-manifest"};
  size_t rejected = 0;
  size_t accepted = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string payload = good_;
    const size_t edits = 1 + rng.UniformIndex(3);
    for (size_t n = 0; n < edits; ++n) {
      // Token positions are those of the clean payload; after an edit they
      // may land mid-token, which is a mutation too.
      const size_t at =
          std::min(token_starts_[rng.UniformIndex(token_starts_.size())],
                   payload.size());
      const size_t end = std::min(payload.find(' ', at), payload.size());
      switch (rng.UniformIndex(5)) {
        case 0:  // replace a field with an edge-case token
          payload.replace(at, end - at,
                          tokens[rng.UniformIndex(tokens.size())]);
          break;
        case 1:  // drop a field (and its separator)
          payload.erase(at, end - at + 1);
          break;
        case 2:  // duplicate a field
          payload.insert(at, payload.substr(at, end - at + 1));
          break;
        case 3:  // overwrite any byte with any value
          payload[rng.UniformIndex(payload.size())] =
              static_cast<char>(rng.UniformInt(0, 255));
          break;
        default:  // insert random bytes anywhere
          payload.insert(rng.UniformIndex(payload.size() + 1),
                         RandomBytes(&rng, 1 + rng.UniformIndex(8),
                                     round % 2 == 0));
          break;
      }
    }
    if (Decode(payload)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must occur, or the mutations are not reaching the
  // decoder's checks (or never produce a still-valid record).
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 50u);
}

// The encoder never writes a sign on an unsigned field nor '+' on the
// signed one, and nothing after the last field: such records are corrupt,
// not values to wrap ("-1" as 2^64 - 1) or bytes to ignore.
TEST_F(ManifestFuzzTest, SignedUnsignedFieldsAndTrailingBytesAreRejected) {
  constexpr size_t kNextFragmentId = 14;  // token 0 is the marker
  for (size_t field = 1; field < token_starts_.size(); ++field) {
    if (field == 3 || field == 4 || field == 11) {
      continue;  // window_start, window_end and ttd are doubles
    }
    for (const std::string tok : {"+7", "-1", "-0"}) {
      std::string payload = good_;
      const size_t at = token_starts_[field];
      payload.replace(at, payload.find(' ', at) - at, tok);
      EXPECT_EQ(Decode(payload), field == kNextFragmentId && tok[0] == '-')
          << "field " << field << " = " << tok;
    }
  }
  EXPECT_FALSE(Decode(good_ + "7"));
  EXPECT_FALSE(Decode(good_ + "x\n"));
  EXPECT_FALSE(Decode(good_ + std::string(1, '\0')));
  EXPECT_FALSE(Decode(good_ + "wcop-window-manifest"));
  EXPECT_TRUE(Decode(good_ + " \t\n"));
}

// ---------------------------------------------------------------------------
// Shard checkpoint codec (`shard_NNNNN.ckpt`): every truncation and seeded
// field and byte mutations, re-sealed in the snapshot envelope so they
// reach the decoder past the envelope's CRC, must be rejected or decode to
// a checkpoint that re-encodes stably. A sign on an unsigned field is
// corruption, not 2^64 - 1.
// ---------------------------------------------------------------------------

class ShardCheckpointFuzzTest : public FuzzRobustnessTest {
 protected:
  static constexpr uint64_t kFingerprint = 0x243f6a8885a308d3ULL;

  void SetUp() override {
    FuzzRobustnessTest::SetUp();
    // Three pairs of co-travellers and one traveller asking for k = 8 of
    // 7, who is trashed: a checkpoint with clusters, trash, counters,
    // gauges and records.
    Dataset d;
    for (int64_t i = 0; i < 7; ++i) {
      d.Add(testing_util::MakeLineWithReq(
          i, 3000.0 * static_cast<double>(i / 2),
          20.0 * static_cast<double>(i % 2), 5.0, 0.0, 5, i < 6 ? 2 : 8,
          300.0, 10.0));
    }
    telemetry::Telemetry telemetry;
    WcopOptions options;
    options.seed = 3;
    options.trash_fraction = 0.2;
    options.telemetry = &telemetry;
    Result<AnonymizationResult> result = RunWcopCt(d, options);
    ASSERT_TRUE(result.ok()) << result.status();
    store::ShardCheckpoint state;
    state.result = *std::move(result);
    state.verification = VerifyAnonymity(d, state.result);
    ASSERT_EQ(state.result.report.input_trajectories, 7u);
    ASSERT_FALSE(state.result.trashed_ids.empty());
    ASSERT_FALSE(state.result.clusters.empty());
    ASSERT_FALSE(state.result.report.metrics.counters.empty());
    ASSERT_FALSE(state.result.report.metrics.gauges.empty());
    good_ = store::EncodeShardCheckpoint(kFingerprint, state);
    path_ = (dir_ / "fuzz.ckpt").string();
    // Token starts of the text sections, which end where the binary
    // records begin, after the "published <count> \n" line.
    const size_t published = good_.find("\npublished ");
    ASSERT_NE(published, std::string::npos);
    const size_t text_end = good_.find('\n', published + 1);
    for (size_t pos = 0; pos < text_end; ++pos) {
      if (!IsSpace(good_[pos]) && (pos == 0 || IsSpace(good_[pos - 1]))) {
        token_starts_.push_back(pos);
      }
    }
    // A clean payload re-encodes to itself.
    Result<store::ShardCheckpoint> clean =
        store::DecodeShardCheckpoint(good_, kFingerprint);
    ASSERT_TRUE(clean.ok()) << clean.status();
    ASSERT_EQ(store::EncodeShardCheckpoint(kFingerprint, *clean), good_);
    ASSERT_TRUE(Decode(good_));
  }

  static bool IsSpace(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }

  /// Seals `payload`, reads it back and decodes it, checking the contract.
  /// Returns whether the checkpoint was accepted.
  bool Decode(const std::string& payload) {
    EXPECT_TRUE(
        WriteSnapshotFile(path_, payload, store::kShardCheckpointVersion)
            .ok());
    Result<Snapshot> snapshot = ReadSnapshotFile(path_);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status();
    if (!snapshot.ok()) {
      return false;
    }
    Result<store::ShardCheckpoint> c =
        store::DecodeShardCheckpoint(snapshot->payload, kFingerprint);
    if (!c.ok()) {
      // A mutated fingerprint that still parses is another shard's.
      EXPECT_TRUE(c.status().code() == StatusCode::kDataLoss ||
                  c.status().code() == StatusCode::kFailedPrecondition)
          << c.status();
      return false;
    }
    const std::string encoded = store::EncodeShardCheckpoint(kFingerprint, *c);
    Result<store::ShardCheckpoint> again =
        store::DecodeShardCheckpoint(encoded, kFingerprint);
    EXPECT_TRUE(again.ok()) << again.status();
    if (again.ok()) {
      EXPECT_EQ(store::EncodeShardCheckpoint(kFingerprint, *again), encoded);
    }
    return true;
  }

  /// Start of the `n`-th token after the keyword that opens the line
  /// `section` (any line but the first).
  size_t TokenAfter(const std::string& section, size_t n) const {
    const size_t line = good_.find("\n" + section + " ") + 1;
    const size_t keyword = static_cast<size_t>(
        std::find(token_starts_.begin(), token_starts_.end(), line) -
        token_starts_.begin());
    if (keyword + n >= token_starts_.size()) {
      ADD_FAILURE() << "no token " << n << " after " << section;
      return 0;
    }
    return token_starts_[keyword + n];
  }

  std::string Replaced(size_t at, const std::string& token) const {
    std::string payload = good_;
    const size_t end = payload.find_first_of(" \n", at);
    payload.replace(at, end - at, token);
    return payload;
  }

  std::string good_;
  std::string path_;
  std::vector<size_t> token_starts_;
};

TEST_F(ShardCheckpointFuzzTest, EveryTruncationIsRejected) {
  // "end" is the last token: a cut anywhere before its newline drops it.
  for (size_t cut = 0; cut + 1 < good_.size(); ++cut) {
    EXPECT_FALSE(Decode(good_.substr(0, cut))) << "cut " << cut;
  }
}

TEST_F(ShardCheckpointFuzzTest, SeededMutationsAreRejectedOrRoundTrip) {
  Rng rng(707);
  const std::vector<std::string> tokens = {
      "", "0", "1", "2", "7", "-1", "+7", "-0", "1.5", "12abc", "0x10", "nan",
      "-nan", "inf", "1e309", "1e-320", "2147483648", "4294967296",
      "9223372036854775807", "9223372036854775808", "-9223372036854775809",
      "18446744073709551615", "18446744073709551616", "end", "published",
      "clusters"};
  size_t rejected = 0;
  size_t accepted = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string payload = good_;
    const size_t edits = 1 + rng.UniformIndex(3);
    for (size_t n = 0; n < edits; ++n) {
      // Token positions are those of the clean payload; after an edit they
      // may land mid-token, which is a mutation too.
      const size_t at =
          std::min(token_starts_[rng.UniformIndex(token_starts_.size())],
                   payload.size());
      const size_t end = std::min(payload.find_first_of(" \n", at),
                                  payload.size());
      switch (rng.UniformIndex(5)) {
        case 0:  // replace a field with an edge-case token
          payload.replace(at, end - at,
                          tokens[rng.UniformIndex(tokens.size())]);
          break;
        case 1:  // drop a field (and its separator)
          payload.erase(at, end - at + 1);
          break;
        case 2:  // duplicate a field
          payload.insert(at, payload.substr(at, end - at + 1));
          break;
        case 3:  // overwrite any byte, binary records included
          payload[rng.UniformIndex(payload.size())] =
              static_cast<char>(rng.UniformInt(0, 255));
          break;
        default:  // insert random bytes anywhere
          payload.insert(rng.UniformIndex(payload.size() + 1),
                         RandomBytes(&rng, 1 + rng.UniformIndex(8),
                                     round % 2 == 0));
          break;
      }
    }
    if (Decode(payload)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must occur, or the mutations are not reaching the
  // decoder's checks (or never produce a still-valid checkpoint).
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 50u);
}

// Fields the encoder never writes that way are rejected; the signed ones
// (trashed ids, cluster k) take a sign.
TEST_F(ShardCheckpointFuzzTest, SignsFlagsRangesAndTrailingBytesAreRejected) {
  struct Edit {
    const char* section;
    size_t token;  ///< 1 = the first value after the section keyword
    const char* value;
    bool accepted;
  };
  const Edit edits[] = {
      {"fingerprint", 1, "-1", false},
      {"report", 1, "-1", false},   // input_trajectories
      {"report", 1, "+7", false},
      {"report", 4, "-0", false},   // trashed_points
      {"report", 16, "-1", false},  // clustering_rounds
      {"report", 18, "2", false},   // degraded flag
      {"verification", 1, "2", false},
      {"verification", 3, "-1", false},
      {"counters", 1, "-1", false},
      {"counters", 3, "-1", false},  // the first counter's value
      {"trashed", 1, "-1", false},
      {"trashed", 2, "-6", true},  // ids are signed
      {"trashed", 2, "+6", false},
      {"clusters", 1, "-1", false},
      {"clusters", 2, "-1", false},  // pivot
      {"clusters", 2, "7", false},   // pivot past the shard's 7 inputs
      {"clusters", 3, "-2", true},   // k is a signed int...
      {"clusters", 3, "2147483648", false},  // ...that fits an int
      {"clusters", 5, "-1", false},  // member count
      {"clusters", 6, "-1", false},  // first member
      {"clusters", 6, "7", false},   // member past the shard's 7 inputs
      {"published", 1, "-1", false},
  };
  for (const Edit& e : edits) {
    EXPECT_EQ(Decode(Replaced(TokenAfter(e.section, e.token), e.value)),
              e.accepted)
        << e.section << " token " << e.token << " = " << e.value;
  }
  EXPECT_FALSE(Decode(good_ + "x"));
  EXPECT_FALSE(Decode(good_ + "end\n"));
  EXPECT_FALSE(Decode(good_ + std::string(1, '\0')));
  EXPECT_TRUE(Decode(good_ + " \t\n"));
}

// ---------------------------------------------------------------------------
// Adversarial end-to-end runs: RunWcopCt must either reject the dataset with
// a clean Status or publish a result the independent verifier accepts. It
// must never crash, hang, or publish structurally invalid trajectories.
// ---------------------------------------------------------------------------

using testing_util::MakeLineWithReq;

// Shared contract check for every adversarial dataset below.
void ExpectCleanRejectionOrValidResult(const Dataset& dataset) {
  WcopOptions options;
  options.seed = 13;
  Result<AnonymizationResult> r = RunWcopCt(dataset, options);
  if (!r.ok()) {
    EXPECT_FALSE(r.status().message().empty()) << r.status();
    return;
  }
  EXPECT_TRUE(r->sanitized.Validate().ok());
  VerificationReport verification = VerifyAnonymity(dataset, *r);
  EXPECT_TRUE(verification.ok)
      << (verification.messages.empty() ? "" : verification.messages.front());
}

TEST(AdversarialPipelineTest, NanCoordinates) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  std::vector<Point> points;
  for (int i = 0; i < 20; ++i) {
    points.emplace_back(std::nan(""), 5.0, 10.0 * i);
  }
  Trajectory poisoned(100, std::move(points), Requirement{2, 500.0});
  d.Add(std::move(poisoned));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, InfiniteCoordinates) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  std::vector<Point> points;
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 20; ++i) {
    points.emplace_back(i % 2 == 0 ? inf : -inf, 5.0, 10.0 * i);
  }
  d.Add(Trajectory(100, std::move(points), Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, NonMonotoneTimestamps) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  std::vector<Point> points;
  for (int i = 0; i < 20; ++i) {
    // Timeline zig-zags backwards every third sample.
    points.emplace_back(1.0 * i, 1.0 * i, i % 3 == 0 ? 100.0 - i : 1.0 * i);
  }
  d.Add(Trajectory(100, std::move(points), Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, ZeroPointTrajectory) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  d.Add(Trajectory(100, {}, Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, SinglePointTrajectory) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  d.Add(Trajectory(100, {Point(3.0, 4.0, 50.0)}, Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, DuplicateTrajectoryIds) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  // Same id as trajectory 1, different geometry.
  d.Add(MakeLineWithReq(1, 500.0, 500.0, -1.0, 0.5, 20, 3, 400.0));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, DuplicateObjectIds) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    Trajectory t = MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2,
                                   500.0);
    t.set_object_id(7);  // every trajectory claims the same moving object
    d.Add(std::move(t));
  }
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, EmptyDataset) {
  ExpectCleanRejectionOrValidResult(Dataset{});
}

TEST(AdversarialPipelineTest, UnsatisfiableRequirements) {
  // Three trajectories all demanding k = 50: no cluster can ever reach its
  // k, so everything must be trashed or the run must fail cleanly.
  Dataset d;
  for (int i = 0; i < 3; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 50, 500.0));
  }
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, ExtremeCoordinateMagnitudes) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  d.Add(MakeLineWithReq(100, 1e15, -1e15, 1e12, -1e12, 20, 2, 500.0));
  ExpectCleanRejectionOrValidResult(d);
}

}  // namespace
}  // namespace wcop
