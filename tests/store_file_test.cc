#include "store/store_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "data/store_convert.h"
#include "test_util.h"
#include "traj/io.h"

namespace wcop {
namespace store {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;
namespace wst = testing_util::wst;
using testing_util::DoubleBits;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good());
}

void ExpectBitExact(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.object_id(), b.object_id());
  EXPECT_EQ(a.parent_id(), b.parent_id());
  EXPECT_EQ(a.requirement().k, b.requirement().k);
  // Bitwise equality throughout (so -0.0 differs from 0.0): blocks hold the
  // raw IEEE-754 bits.
  EXPECT_EQ(DoubleBits(a.requirement().delta),
            DoubleBits(b.requirement().delta));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(DoubleBits(a[i].x), DoubleBits(b[i].x)) << "point " << i;
    EXPECT_EQ(DoubleBits(a[i].y), DoubleBits(b[i].y)) << "point " << i;
    EXPECT_EQ(DoubleBits(a[i].t), DoubleBits(b[i].t)) << "point " << i;
  }
}

TEST(StoreFileTest, RoundTripIsBitExact) {
  Dataset dataset = SmallSynthetic(24, 40);
  // Extremes of every field the record carries: signed zero, the smallest
  // subnormal and DBL_MAX in each coordinate, the int64 id limits, negative
  // object and parent ids, k = INT_MAX and delta = 0.
  const double tiny = 4.9e-324;
  Trajectory extremes(INT64_MIN,
                      {Point(-0.0, tiny, -DBL_MAX), Point(DBL_MAX, -0.0, -0.0),
                       Point(tiny, -DBL_MAX, tiny), Point(-tiny, 0.0, DBL_MAX)},
                      Requirement{INT_MAX, 0.0});
  extremes.set_object_id(-7);
  extremes.set_parent_id(INT64_MIN);
  dataset.Add(std::move(extremes));
  Trajectory top(INT64_MAX, {Point(1.0, 2.0, 3.0)}, Requirement{1, -0.0});
  top.set_object_id(INT64_MIN);
  top.set_parent_id(-2);
  dataset.Add(std::move(top));
  const std::string path = TempPath("store_roundtrip.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->size(), dataset.size());
  EXPECT_EQ(reader->total_points(), dataset.TotalPoints());

  Result<Dataset> back = reader->ReadAll();
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    ExpectBitExact(dataset[i], (*back)[i]);
  }
  std::filesystem::remove(path);
}

TEST(StoreFileTest, IndexCarriesPartitionerMetadata) {
  Dataset dataset;
  dataset.Add(MakeLineWithReq(7, 100.0, 200.0, 5.0, -3.0, /*n=*/20,
                              /*k=*/4, /*delta=*/123.5, /*dt=*/2.0,
                              /*t0=*/50.0));
  const std::string path = TempPath("store_meta.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->index().size(), 1u);
  const StoreEntry& e = reader->index()[0];
  const BoundingBox bounds = dataset[0].Bounds();
  EXPECT_EQ(e.id, 7);
  EXPECT_EQ(e.num_points, 20u);
  EXPECT_EQ(e.k, 4);
  EXPECT_EQ(e.delta, 123.5);
  EXPECT_EQ(e.min_x, bounds.min_x());
  EXPECT_EQ(e.min_y, bounds.min_y());
  EXPECT_EQ(e.max_x, bounds.max_x());
  EXPECT_EQ(e.max_y, bounds.max_y());
  EXPECT_EQ(e.t_min, dataset[0].StartTime());
  EXPECT_EQ(e.t_max, dataset[0].EndTime());
  std::filesystem::remove(path);
}

TEST(StoreFileTest, ReadByIdAndNotFound) {
  const Dataset dataset = SmallSynthetic(10, 12);
  const std::string path = TempPath("store_by_id.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const int64_t want = dataset[3].id();
  Result<Trajectory> t = reader->ReadById(want);
  ASSERT_TRUE(t.ok()) << t.status();
  ExpectBitExact(dataset[3], *t);

  Result<Trajectory> missing = reader->ReadById(-12345);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::filesystem::remove(path);
}

// CSV -> store -> CSV must reproduce the CSV byte-for-byte: the parsed
// doubles are stored losslessly, so re-printing them %.6f gives back the
// exact original text (coordinates, timestamps, and (k, delta) included).
TEST(StoreFileTest, CsvStoreCsvRoundTripIsByteIdentical) {
  const Dataset dataset = SmallSynthetic(16, 30);
  const std::string csv_in = TempPath("store_rt_in.csv");
  const std::string store_path = TempPath("store_rt.wst");
  const std::string csv_out = TempPath("store_rt_out.csv");
  ASSERT_TRUE(WriteDatasetCsv(dataset, csv_in).ok());

  Result<StoreConvertStats> to_store = ConvertCsvToStore(csv_in, store_path);
  ASSERT_TRUE(to_store.ok()) << to_store.status();
  EXPECT_EQ(to_store->trajectories, dataset.size());
  EXPECT_EQ(to_store->points, dataset.TotalPoints());

  Result<StoreConvertStats> to_csv = ConvertStoreToCsv(store_path, csv_out);
  ASSERT_TRUE(to_csv.ok()) << to_csv.status();
  EXPECT_EQ(ReadFileBytes(csv_in), ReadFileBytes(csv_out));

  std::filesystem::remove(csv_in);
  std::filesystem::remove(store_path);
  std::filesystem::remove(csv_out);
}

TEST(StoreFileTest, TruncationSurfacesDataLossNeverATornRead) {
  const Dataset dataset = SmallSynthetic(8, 16);
  const std::string path = TempPath("store_trunc.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Cut the file at a spread of lengths: every truncation must be rejected
  // at Open() (the index or footer is damaged) — never a partial dataset.
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    const size_t cut = static_cast<size_t>(bytes.size() * frac);
    WriteFileBytes(path, bytes.substr(0, cut));
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_FALSE(reader.ok()) << "cut at " << cut;
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
        << reader.status();
  }
  // Dropping only the final footer byte must fail too.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
            StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST(StoreFileTest, BitFlipInBlockIsIsolatedDataLoss) {
  const Dataset dataset = SmallSynthetic(6, 16);
  const std::string path = TempPath("store_flip.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> clean = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  // Flip one bit in the middle of trajectory 2's payload.
  const StoreEntry victim = clean->index()[2];
  std::string bytes = ReadFileBytes(path);
  bytes[victim.offset + victim.block_size / 2] ^= 0x10;
  WriteFileBytes(path, bytes);

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();  // index is intact
  Result<Trajectory> damaged = reader->Read(2);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);
  // Undamaged blocks stay readable and exact.
  for (const size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
    Result<Trajectory> t = reader->Read(i);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectBitExact(dataset[i], *t);
  }
  // ReadAll must refuse the damaged store rather than return a torn subset.
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST(StoreFileTest, BitFlipInIndexRejectsAtOpen) {
  const Dataset dataset = SmallSynthetic(6, 16);
  const std::string path = TempPath("store_flip_idx.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  std::string bytes = ReadFileBytes(path);
  // The index sits between the last block and the 16-byte footer; flip a
  // byte 40 bytes before the footer (inside some index entry).
  bytes[bytes.size() - 16 - 40] ^= 0x04;
  WriteFileBytes(path, bytes);
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss) << reader.status();
  std::filesystem::remove(path);
}

TEST(StoreFileTest, UnsupportedVersionIsRejected) {
  const Dataset dataset = SmallSynthetic(4, 10);
  const std::string path = TempPath("store_version.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  const std::string good = ReadFileBytes(path);
  // Version 1 is the retired text-record format: rejected, never decoded.
  for (const char version : {char{1}, char{99}}) {
    std::string bytes = good;
    bytes[8] = version;  // format version lives at [8..12), little-endian
    WriteFileBytes(path, bytes);
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_FALSE(reader.ok()) << int{version};
    EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  }
  std::filesystem::remove(path);
}

// Open() rejects index rows that do not describe a real block, even when
// the index CRC is valid. Regression: it used to bound a block by
// `offset + block_size`, which wraps in u64 — entry 0 claiming 2^64 - 8
// bytes wrapped to end at offset 8, entry 1 "continued" from there to the
// index, and Read(0) threw std::length_error instead of returning a Status.
// Every row must also describe exactly 8 + 48 + 24 * n bytes, which keeps
// total_points() bounded by the file size.
TEST(StoreFileTest, CraftedIndexEntriesAreDataLoss) {
  const Dataset dataset = SmallSynthetic(2, 10);
  const std::string path = TempPath("store_crafted_index.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_EQ(wst::EntryCount(good), 2u);
  const uint64_t index_offset = wst::IndexOffset(good);
  auto field = [&](size_t entry, size_t f) {
    return wst::EntryFieldAt(good, entry, f);
  };
  const std::vector<std::vector<std::pair<size_t, uint64_t>>> edits = {
      {{field(0, wst::kEntryBlockSize), UINT64_MAX - 7},
       {field(1, wst::kEntryOffset), 8},
       {field(1, wst::kEntryBlockSize), index_offset - 8}},
      {{field(1, wst::kEntryPoints), 9}},
      {{field(1, wst::kEntryPoints), 11}},
      {{field(1, wst::kEntryPoints), UINT64_MAX}},
  };
  for (size_t i = 0; i < edits.size(); ++i) {
    std::string bytes = good;
    for (const auto& [at, value] : edits[i]) {
      wst::PutU64(&bytes, at, value);
    }
    wst::RepairIndexCrc(&bytes);
    WriteFileBytes(path, bytes);
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_FALSE(reader.ok()) << "edit " << i;
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
        << "edit " << i << ": " << reader.status();
  }
  std::filesystem::remove(path);
}

// A CRC-valid block must still agree with its index row on the requirement
// (the partitioner plans margins and shard sizes from the row), carry a k
// that fits an int, and decode to a valid trajectory; otherwise Read() is
// kDataLoss, while the other blocks stay readable.
TEST(StoreFileTest, BlockDisagreeingWithItsIndexRowIsDataLoss) {
  const Dataset dataset = SmallSynthetic(3, 10);
  const std::string path = TempPath("store_mismatch.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  const std::string good = ReadFileBytes(path);
  const size_t block = wst::BlockAt(good, 1);
  const uint64_t next_delta_bits =
      DoubleBits(std::nextafter(dataset[1].requirement().delta, 1e9));
  const uint64_t nan_bits =
      DoubleBits(std::numeric_limits<double>::quiet_NaN());
  const uint64_t k_wide = (uint64_t{1} << 32) + 3;  // an int cast gives 3
  const uint64_t k_bad = static_cast<uint64_t>(int64_t{-3});

  struct Edit {
    const char* what;
    std::vector<std::pair<size_t, uint64_t>> puts;  // (file offset, value)
  };
  const std::vector<Edit> edits = {
      {"index k differs",
       {{wst::EntryFieldAt(good, 1, wst::kEntryK),
         static_cast<uint64_t>(dataset[1].requirement().k + 1)}}},
      {"index delta differs by one ulp",
       {{wst::EntryFieldAt(good, 1, wst::kEntryDelta), next_delta_bits}}},
      {"block delta differs by one ulp",
       {{wst::RecordFieldAt(block, wst::kRecordDelta), next_delta_bits}}},
      {"k does not fit an int (block and row agree)",
       {{wst::RecordFieldAt(block, wst::kRecordK), k_wide},
        {wst::EntryFieldAt(good, 1, wst::kEntryK), k_wide}}},
      {"k < 1 fails validation (block and row agree)",
       {{wst::RecordFieldAt(block, wst::kRecordK), k_bad},
        {wst::EntryFieldAt(good, 1, wst::kEntryK), k_bad}}},
      {"non-finite coordinate fails validation",
       {{wst::PointAt(block, 4, 0), nan_bits}}},
      {"repeated timestamp fails validation",
       {{wst::PointAt(block, 5, 2),
         wst::GetU64(good, wst::PointAt(block, 4, 2))}}},
  };
  for (const Edit& edit : edits) {
    std::string bytes = good;
    for (const auto& [at, value] : edit.puts) {
      wst::PutU64(&bytes, at, value);
    }
    wst::RepairBlockCrc(&bytes, block);
    wst::RepairIndexCrc(&bytes);
    WriteFileBytes(path, bytes);
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << edit.what << ": " << reader.status();
    Result<Trajectory> damaged = reader->Read(1);
    ASSERT_FALSE(damaged.ok()) << edit.what;
    EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss)
        << edit.what << ": " << damaged.status();
    Result<Trajectory> intact = reader->Read(2);
    ASSERT_TRUE(intact.ok()) << edit.what << ": " << intact.status();
    ExpectBitExact(dataset[2], *intact);
  }
  std::filesystem::remove(path);
}

// The record codec on its own, as the shard checkpoint uses it: records
// concatenate, and a record that overruns its buffer or carries a k beyond
// int is kDataLoss, with no index row to compare against.
TEST(StoreFileTest, RecordCodecRejectsMalformedRecords) {
  const Dataset dataset = SmallSynthetic(2, 5);
  std::string two;
  AppendTrajectoryRecord(&two, dataset[0]);
  const size_t first_size = two.size();
  ASSERT_EQ(first_size, wst::kRecordHeaderSize + 5 * 24);
  AppendTrajectoryRecord(&two, dataset[1]);
  size_t pos = 0;
  for (size_t i = 0; i < 2; ++i) {
    Result<Trajectory> t = ParseTrajectoryRecord(two, &pos);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectBitExact(dataset[i], *t);
  }
  EXPECT_EQ(pos, two.size());

  const std::string one = two.substr(0, first_size);
  for (size_t len = 0; len < one.size(); ++len) {
    pos = 0;
    EXPECT_EQ(ParseTrajectoryRecord(one.substr(0, len), &pos).status().code(),
              StatusCode::kDataLoss)
        << len;
    EXPECT_EQ(pos, 0u);
  }
  std::string wide_k = one;
  wst::PutU64(&wide_k, wst::kRecordK * 8, (uint64_t{1} << 32) + 3);
  pos = 0;
  EXPECT_EQ(ParseTrajectoryRecord(wide_k, &pos).status().code(),
            StatusCode::kDataLoss);
  pos = one.size() + 1;
  EXPECT_EQ(ParseTrajectoryRecord(one, &pos).status().code(),
            StatusCode::kDataLoss);
}

// The reader is lock-free: eight threads reading every block of one reader,
// each in its own order, get exactly what a serial read returns.
TEST(StoreFileTest, ConcurrentReadsMatchSerial) {
  const Dataset dataset = SmallSynthetic(64, 30);
  const std::string path = TempPath("store_concurrent.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Result<Dataset> serial = reader->ReadAll();
  ASSERT_TRUE(serial.ok()) << serial.status();

  constexpr size_t kThreads = 8;
  std::vector<std::vector<Trajectory>> got(
      kThreads, std::vector<Trajectory>(reader->size()));
  std::vector<size_t> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<size_t> order(reader->size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      std::shuffle(order.begin(), order.end(), std::mt19937(t));
      for (const size_t i : order) {
        Result<Trajectory> r = reader->Read(i);
        if (r.ok()) {
          got[t][i] = std::move(r).value();
        } else {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "thread " << t;
    for (size_t i = 0; i < serial->size(); ++i) {
      ExpectBitExact((*serial)[i], got[t][i]);
    }
  }
  std::filesystem::remove(path);
}

TEST(StoreFileTest, WriterFailpointsPropagateAndLeaveNoStore) {
  const Dataset dataset = SmallSynthetic(4, 10);
  const std::string path = TempPath("store_failpoint.wst");
  for (const char* site : {"store.create", "store.write_block",
                           "store.write_index", "store.fsync",
                           "store.rename"}) {
    ScopedFailpoint fp(site, Status::IoError("injected"));
    Status s = WriteDatasetStore(dataset, path);
    ASSERT_FALSE(s.ok()) << site;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << site;
    // A failed write never leaves a (partial) store at the target path.
    EXPECT_FALSE(std::filesystem::exists(path)) << site;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << site;
  }
  // Disarmed, the same write succeeds.
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  std::filesystem::remove(path);
}

TEST(StoreFileTest, ReaderFailpointsPropagate) {
  const Dataset dataset = SmallSynthetic(4, 10);
  const std::string path = TempPath("store_failpoint_rd.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  {
    ScopedFailpoint fp("store.open", Status::IoError("injected"));
    EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
              StatusCode::kIoError);
  }
  {
    ScopedFailpoint fp("store.read_index", Status::DataLoss("injected"));
    EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
              StatusCode::kDataLoss);
  }
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  {
    ScopedFailpoint fp("store.read_block", Status::DataLoss("injected"));
    EXPECT_EQ(reader->Read(0).status().code(), StatusCode::kDataLoss);
  }
  EXPECT_TRUE(reader->Read(0).ok());
  std::filesystem::remove(path);
}

void ExpectSameEntry(const StoreEntry& a, const StoreEntry& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.block_size, b.block_size);
  EXPECT_EQ(a.num_points, b.num_points);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(DoubleBits(a.delta), DoubleBits(b.delta));
  EXPECT_EQ(DoubleBits(a.min_x), DoubleBits(b.min_x));
  EXPECT_EQ(DoubleBits(a.min_y), DoubleBits(b.min_y));
  EXPECT_EQ(DoubleBits(a.max_x), DoubleBits(b.max_x));
  EXPECT_EQ(DoubleBits(a.max_y), DoubleBits(b.max_y));
  EXPECT_EQ(DoubleBits(a.t_min), DoubleBits(b.t_min));
  EXPECT_EQ(DoubleBits(a.t_max), DoubleBits(b.t_max));
}

// A writer's digest is the CRC32 and size of exactly the file it finished,
// and a pathless writer encodes the same image, with the same index rows,
// without touching the disk.
TEST(StoreFileTest, WriterDigestMatchesTheFinishedFile) {
  // Many blocks: ~120 KB, so DigestFile reads it in more than one chunk.
  const Dataset dataset = SmallSynthetic(60, 80);
  for (const size_t n : {size_t{0}, size_t{1}, dataset.size()}) {
    SCOPED_TRACE("blocks " + std::to_string(n));
    const std::string path = TempPath("store_digest.wst");
    Result<TrajectoryStoreWriter> file = TrajectoryStoreWriter::Create(path);
    ASSERT_TRUE(file.ok()) << file.status();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(file->Append(dataset[i]).ok());
    }
    ASSERT_TRUE(file->Finish().ok());
    Result<FileDigest> on_disk = DigestFile(path);
    ASSERT_TRUE(on_disk.ok()) << on_disk.status();
    EXPECT_EQ(on_disk->size, ReadFileBytes(path).size());
    EXPECT_EQ(file->digest().crc, on_disk->crc);
    EXPECT_EQ(file->digest().size, on_disk->size);

    Result<TrajectoryStoreWriter> memory = Status::Internal("not created");
    {
      // Every writer I/O site armed: a pathless writer reaches none of them.
      ScopedFailpoint create("store.create", Status::IoError("injected"));
      ScopedFailpoint block("store.write_block", Status::IoError("injected"));
      ScopedFailpoint index("store.write_index", Status::IoError("injected"));
      ScopedFailpoint fsync("store.fsync", Status::IoError("injected"));
      ScopedFailpoint rename("store.rename", Status::IoError("injected"));
      memory = TrajectoryStoreWriter::Create("");
      ASSERT_TRUE(memory.ok()) << memory.status();
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(memory->Append(dataset[i]).ok());
      }
      ASSERT_TRUE(memory->Finish().ok());
    }
    EXPECT_EQ(memory->digest().crc, on_disk->crc);
    EXPECT_EQ(memory->digest().size, on_disk->size);
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    ASSERT_EQ(memory->index().size(), n);
    ASSERT_EQ(reader->index().size(), n);
    for (size_t i = 0; i < n; ++i) {
      ExpectSameEntry(memory->index()[i], reader->index()[i]);
      ExpectSameEntry(file->index()[i], reader->index()[i]);
    }
    std::filesystem::remove(path);
  }
  EXPECT_EQ(DigestFile(TempPath("store_digest.wst")).status().code(),
            StatusCode::kNotFound);
}

TEST(StoreFileTest, EmptyAndMissingFiles) {
  const std::string path = TempPath("store_empty.wst");
  WriteFileBytes(path, "");
  EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
            StatusCode::kDataLoss);
  std::filesystem::remove(path);
  EXPECT_FALSE(TrajectoryStoreReader::Open(path).ok());
}

// ---------------------------------------------------------------------------
// Janitor vs live writers: SweepStaleArtifacts must reclaim only true
// orphans. A temp file owned by an in-flight writer (registered in the
// live-artifact registry) survives every sweep, even when the sweep runs in
// the same directory at the same time.
// ---------------------------------------------------------------------------

TEST(StoreFileTest, SweepSkipsLiveWriterTempFile) {
  const std::string dir = TempPath("janitor_live_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  // A true orphan from a "crashed" writer and a live writer's temp file.
  WriteFileBytes(dir + "/orphan.wst.tmp", "torn bytes");
  Result<TrajectoryStoreWriter> writer =
      TrajectoryStoreWriter::Create(dir + "/live.wst");
  ASSERT_TRUE(writer.ok()) << writer.status();
  const Dataset dataset = SmallSynthetic(3, 10);
  ASSERT_TRUE(writer->Append(dataset.trajectories().front()).ok());

  Result<size_t> swept = SweepStaleArtifacts(dir);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(*swept, 1u);  // the orphan, nothing else
  EXPECT_FALSE(std::filesystem::exists(dir + "/orphan.wst.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/live.wst.tmp"));

  // The surviving writer publishes normally...
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_TRUE(TrajectoryStoreReader::Open(dir + "/live.wst").ok());

  // ...and once finished, its name is no longer protected: a later orphan
  // under the same name is ordinary garbage again.
  WriteFileBytes(dir + "/live.wst.tmp", "leftover");
  swept = SweepStaleArtifacts(dir);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(*swept, 1u);
  std::filesystem::remove_all(dir);
}

TEST(StoreFileTest, SweepRacingActiveWriterNeverTearsThePublish) {
  const std::string dir = TempPath("janitor_race_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  const Dataset dataset = SmallSynthetic(32, 20);
  std::atomic<bool> done{false};
  std::thread sweeper([&]() {
    // Hammer the janitor for the whole life of the writer. Every sweep must
    // see the registered temp file and leave it alone.
    while (!done.load(std::memory_order_relaxed)) {
      Result<size_t> swept = SweepStaleArtifacts(dir);
      EXPECT_TRUE(swept.ok()) << swept.status();
    }
  });

  Result<TrajectoryStoreWriter> writer =
      TrajectoryStoreWriter::Create(dir + "/race.wst");
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const Trajectory& t : dataset.trajectories()) {
    ASSERT_TRUE(writer->Append(t).ok());
  }
  Status finish = writer->Finish();
  done.store(true, std::memory_order_relaxed);
  sweeper.join();
  ASSERT_TRUE(finish.ok()) << finish;

  // The publish survived the sweeps intact and round-trips bit-exactly.
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(dir + "/race.wst");
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->size(), dataset.size());
  Result<Trajectory> first = reader->Read(0);
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectBitExact(*first, dataset.trajectories().front());
  std::filesystem::remove_all(dir);
}

TEST(StoreFileTest, LiveArtifactRegistryRefCounts) {
  const std::string path = TempPath("refcounted.tmp");
  RegisterLiveArtifact(path);
  RegisterLiveArtifact(path);
  EXPECT_TRUE(IsLiveArtifact(path));
  UnregisterLiveArtifact(path);
  EXPECT_TRUE(IsLiveArtifact(path));  // one registration still live
  UnregisterLiveArtifact(path);
  EXPECT_FALSE(IsLiveArtifact(path));
  // Relative and absolute spellings of the same file agree.
  ScopedLiveArtifact scoped("relative_name.tmp");
  EXPECT_TRUE(IsLiveArtifact(
      (std::filesystem::current_path() / "relative_name.tmp").string()));
}

}  // namespace
}  // namespace store
}  // namespace wcop
