#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"

namespace wcop {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("snapshot_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string ReadRaw(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  static void WriteRaw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// CRC32 (reference vectors from the zlib/PNG polynomial).
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, Crc32KnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

// The byte-at-a-time table CRC that Crc32 used before slice-by-8: the
// reference the faster version must match on every input.
uint32_t BytewiseCrc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBuffer(size_t n, uint32_t seed) {
  std::mt19937 gen(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(gen() & 0xffu);
  }
  return out;
}

TEST_F(SnapshotTest, Crc32MatchesBytewiseReference) {
  // Every length through the 8-byte main loop and its tail, at every start
  // alignment, then one large buffer.
  const std::string buf = RandomBuffer(1100 + 8, 5);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1100; ++len) {
      const std::string_view view(buf.data() + align, len);
      ASSERT_EQ(Crc32(view), BytewiseCrc32(view))
          << "align " << align << " len " << len;
    }
  }
  const std::string big = RandomBuffer(size_t{1} << 20, 6);
  EXPECT_EQ(Crc32(big), BytewiseCrc32(big));
}

// The carry-less-multiply kernel against slice-by-8, its oracle: every
// length from 0 to 4096 (below, at and past the 64-byte cut and every
// 16-byte tail) at every start offset 0-15, and continuation from a prefix
// CRC across the cut.
TEST_F(SnapshotTest, Crc32KernelsAgree) {
  EXPECT_EQ(Crc32SliceBy8("123456789"), 0xCBF43926u);
  if (!Crc32ClmulSupported()) {
    GTEST_SKIP() << "this CPU has no PCLMULQDQ";
  }
  EXPECT_EQ(Crc32Clmul("123456789"), 0xCBF43926u);
  const std::string buf = RandomBuffer(4096 + 16, 9);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const std::string_view view(buf.data() + offset, len);
      ASSERT_EQ(Crc32Clmul(view), Crc32SliceBy8(view))
          << "offset " << offset << " len " << len;
    }
  }
  const std::string_view all(buf.data(), 300);
  for (size_t split = 0; split <= all.size(); ++split) {
    for (size_t end = split; end <= all.size(); end += 7) {
      const std::string_view whole = all.substr(0, end);
      ASSERT_EQ(Crc32Clmul(whole.substr(split),
                           Crc32Clmul(whole.substr(0, split))),
                Crc32SliceBy8(whole))
          << "split " << split << " end " << end;
    }
  }
}

// Passing a prefix's CRC continues it: Crc32(b, Crc32(a)) == Crc32(a + b),
// the running digest the store writer keeps while it streams a file.
TEST_F(SnapshotTest, Crc32ContinuesAcrossEverySplit) {
  const std::vector<std::string> inputs = {
      "", "123456789", "The quick brown fox jumps over the lazy dog",
      RandomBuffer(1100, 5)};
  for (const std::string& input : inputs) {
    const std::string_view all(input);
    for (size_t split = 0; split <= all.size(); ++split) {
      ASSERT_EQ(Crc32(all.substr(split), Crc32(all.substr(0, split))),
                Crc32(all))
          << "size " << all.size() << " split " << split;
    }
  }
  // The 1 MiB buffer at a spread of split points, odd and aligned.
  const std::string big = RandomBuffer(size_t{1} << 20, 6);
  const std::string_view all(big);
  for (size_t split = 0; split <= all.size(); split += 65537) {
    EXPECT_EQ(Crc32(all.substr(split), Crc32(all.substr(0, split))),
              Crc32(all))
        << "split " << split;
  }
  EXPECT_EQ(Crc32("", Crc32(all)), Crc32(all));
}

// ---------------------------------------------------------------------------
// Round-trip and basic failure modes.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RoundTrip) {
  const std::string path = Path("snap");
  const std::string payload("hello checkpoint \0 binary ok", 29);
  ASSERT_TRUE(WriteSnapshotFile(path, payload, /*format_version=*/7).ok());

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->format_version, 7u);
  EXPECT_EQ(read->payload, payload);
  // No temp file left behind after a clean write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(SnapshotTest, EmptyPayloadRoundTrips) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "", 1).ok());
  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->payload.empty());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  Result<Snapshot> read = ReadSnapshotFile(Path("nonexistent"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, OverwriteReplacesPreviousSnapshot) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "old", 1).ok());
  ASSERT_TRUE(WriteSnapshotFile(path, "new", 2).ok());
  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->payload, "new");
  EXPECT_EQ(read->format_version, 2u);
}

// ---------------------------------------------------------------------------
// Corruption: every torn-file shape must come back as kDataLoss, never as a
// bogus payload and never as a crash/giant allocation.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, CorruptMagicIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[0] = 'X';
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, TruncatedHeaderIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  WriteRaw(path, bytes.substr(0, 10));  // shorter than the 24-byte header

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, TruncatedPayloadIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "a payload long enough to cut", 1).ok());
  std::string bytes = ReadRaw(path);
  WriteRaw(path, bytes.substr(0, bytes.size() - 5));

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, TrailingGarbageIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  WriteRaw(path, ReadRaw(path) + "extra");

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, FlippedPayloadBitIsCrcMismatch) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[bytes.size() - 1] ^= 0x01;  // flip one payload bit
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
  EXPECT_NE(read.status().message().find("CRC"), std::string::npos)
      << read.status();
}

// A header claiming a huge payload over a tiny file must not allocate the
// claimed size; it reports the size mismatch instead.
TEST_F(SnapshotTest, HugeClaimedSizeIsDataLossNotAllocation) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "tiny", 1).ok());
  std::string bytes = ReadRaw(path);
  for (int i = 12; i < 20; ++i) {
    bytes[static_cast<size_t>(i)] = '\xff';  // payload size = ~2^64
  }
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

// ---------------------------------------------------------------------------
// Rotation + fallback: a corrupt (or missing) current file falls back to the
// previous good snapshot, so a crash mid-write costs one interval at most.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RotatingWriteKeepsPrevious) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".prev"));
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  ASSERT_TRUE(std::filesystem::exists(path + ".prev"));

  Result<Snapshot> current = ReadSnapshotFile(path);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->payload, "second");
  Result<Snapshot> previous = ReadSnapshotFile(path + ".prev");
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->payload, "first");
}

TEST_F(SnapshotTest, FallbackPrefersCurrent) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->payload, "second");
}

TEST_F(SnapshotTest, FallbackUsesPreviousWhenCurrentCorrupt) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[bytes.size() - 1] ^= 0x01;
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload, "first");
}

TEST_F(SnapshotTest, FallbackUsesPreviousWhenCurrentMissing) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  std::filesystem::remove(path);

  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload, "first");
}

TEST_F(SnapshotTest, FallbackReportsDataLossWhenBothCorrupt) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  for (const std::string& p : {path, path + ".prev"}) {
    std::string bytes = ReadRaw(p);
    bytes[bytes.size() - 1] ^= 0x01;
    WriteRaw(p, bytes);
  }

  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, FallbackReportsNotFoundWhenNothingExists) {
  Result<Snapshot> read = ReadSnapshotWithFallback(Path("never_written"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Failpoint-injected write failures: the previous snapshot survives, and a
// RetryPolicy rides over transient (max_fires-limited) failures.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, FailedWriteLeavesPreviousIntact) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "good", 1).ok());
  for (const char* site :
       {"snapshot.open_temp", "snapshot.write", "snapshot.fsync",
        "snapshot.rename"}) {
    ScopedFailpoint fp(site, Status::IoError("injected"));
    Status s = WriteSnapshotFile(path, "doomed", 1);
    ASSERT_FALSE(s.ok()) << site;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << site << ": " << s;
    Result<Snapshot> read = ReadSnapshotFile(path);
    ASSERT_TRUE(read.ok()) << site << ": " << read.status();
    EXPECT_EQ(read->payload, "good") << site;
  }
}

TEST_F(SnapshotTest, RetryRidesOverTransientWriteFailure) {
  const std::string path = Path("snap");
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.sleep_between_attempts = false;
  ScopedFailpoint fp("snapshot.fsync", Status::IoError("transient"),
                     /*max_fires=*/2);
  ASSERT_TRUE(WriteSnapshotFile(path, "persistent", 1, &retry).ok());
  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->payload, "persistent");
}

TEST_F(SnapshotTest, RetryRidesOverTransientReadFailure) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.sleep_between_attempts = false;
  ScopedFailpoint fp("snapshot.read", Status::IoError("transient"),
                     /*max_fires=*/2);
  Result<Snapshot> read = ReadSnapshotFile(path, &retry);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload, "payload");
}

TEST_F(SnapshotTest, CorruptionIsNotRetried) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[bytes.size() - 1] ^= 0x01;
  WriteRaw(path, bytes);

  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.sleep_between_attempts = false;
  FailpointRegistry::Instance().EnableHitCounting(true);
  const uint64_t hits_before =
      FailpointRegistry::Instance().HitCount("snapshot.read");
  Result<Snapshot> read = ReadSnapshotFile(path, &retry);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // kDataLoss is terminal: exactly one read attempt was made.
  EXPECT_EQ(FailpointRegistry::Instance().HitCount("snapshot.read"),
            hits_before + 1);
  FailpointRegistry::Instance().EnableHitCounting(false);
}

}  // namespace
}  // namespace wcop
