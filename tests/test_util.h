#ifndef WCOP_TESTS_TEST_UTIL_H_
#define WCOP_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "data/synthetic.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace wcop {
namespace testing_util {

/// Straight-line trajectory: n points from (x0, y0) stepping (dx, dy) every
/// dt seconds starting at t0.
inline Trajectory MakeLine(int64_t id, double x0, double y0, double dx,
                           double dy, size_t n, double dt = 1.0,
                           double t0 = 0.0) {
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(x0 + dx * static_cast<double>(i),
                        y0 + dy * static_cast<double>(i),
                        t0 + dt * static_cast<double>(i));
  }
  return Trajectory(id, std::move(points));
}

/// As MakeLine but with a requirement attached.
inline Trajectory MakeLineWithReq(int64_t id, double x0, double y0, double dx,
                                  double dy, size_t n, int k, double delta,
                                  double dt = 1.0, double t0 = 0.0) {
  Trajectory t = MakeLine(id, x0, y0, dx, dy, n, dt, t0);
  t.set_requirement(Requirement{k, delta});
  return t;
}

/// Small, fast synthetic dataset for end-to-end tests: `n` trajectories of
/// `points` points each, with uniform random requirements.
inline Dataset SmallSynthetic(size_t n = 40, size_t points = 60,
                              int k_max = 5, double delta_max = 250.0,
                              uint64_t seed = 11) {
  SyntheticOptions options;
  options.seed = seed;
  options.num_users = std::max<size_t>(4, n / 3);
  options.num_trajectories = n;
  options.points_per_trajectory = points;
  options.sampling_interval = 10.0;
  options.region_half_diagonal = 8000.0;
  options.num_hubs = 6;
  options.num_routes = 5;
  options.dataset_duration_days = 10.0;
  Dataset dataset = GenerateSyntheticGeoLife(options).value();
  Rng rng(seed + 1);
  AssignUniformRequirements(&dataset, 2, k_max, 10.0, delta_max, &rng);
  return dataset;
}

/// Three groups of three co-travelling lines in [0, 290] s, 2 km apart: a
/// 100 s window grid gives exactly three windows with every group
/// clusterable at k=2, delta=300. `starts` shifts each group's first sample.
inline Dataset GroupedDataset(const double (&starts)[3] = {0.0, 0.0, 0.0}) {
  std::vector<Trajectory> trajectories;
  int64_t id = 0;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 3; ++i) {
      Trajectory t = MakeLineWithReq(id, 2000.0 * g, 30.0 * i, 5.0, 0.0,
                                     /*n=*/30, /*k=*/2, /*delta=*/300.0,
                                     /*dt=*/10.0, /*t0=*/starts[g]);
      t.set_object_id(id);
      trajectories.push_back(std::move(t));
      ++id;
    }
  }
  return Dataset(std::move(trajectories));
}

/// GroupedDataset with the groups starting at t = 0 / 90 / 190 s. Windows of
/// 100 s give five windows, and the stagger lands single-point fragments at
/// window boundaries, so the continuous pipeline's carry-over chain is
/// genuinely exercised.
inline Dataset StaggeredGroupedDataset() {
  return GroupedDataset({0.0, 90.0, 190.0});
}

/// Bytes of every published continuous-pipeline artifact in `dir` (the
/// `window_NNNNN.wst` stores and the `window_journal.jnl` journal), keyed
/// by file name.
inline std::map<std::string, std::string> PublishedWindowBytes(
    const std::string& dir) {
  std::map<std::string, std::string> bytes;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("window_", 0) == 0) {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes[name].assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
  }
  return bytes;
}

/// The IEEE-754 bits of `v`, for bit-exact comparisons (-0.0 != 0.0).
inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

/// Byte-level surgery on a `.wst` store image (layout in
/// store/store_file.h), for tests that craft corrupt stores: field offsets,
/// little-endian accessors and CRC repair, so that an edited field reaches
/// the reader's structural checks instead of being caught by a checksum.
namespace wst {

inline constexpr size_t kEntrySize = 104;  // 13 8-byte fields
inline constexpr size_t kRecordHeaderSize = 48;
// Field numbers of an index entry and of a block's record header.
enum EntryField { kEntryId, kEntryOffset, kEntryBlockSize, kEntryPoints,
                  kEntryK, kEntryDelta };
enum RecordField { kRecordId, kRecordObject, kRecordParent, kRecordK,
                   kRecordDelta, kRecordPoints };

inline uint64_t GetU64(const std::string& b, size_t at) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

inline void PutU64(std::string* b, size_t at, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*b)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline void PutU32(std::string* b, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*b)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Index offset recorded in the footer (the last 16 bytes).
inline uint64_t IndexOffset(const std::string& b) {
  return GetU64(b, b.size() - 16);
}

inline uint64_t EntryCount(const std::string& b) {
  return GetU64(b, IndexOffset(b) + 8);
}

/// File offset of field `field` of index entry `i`.
inline size_t EntryFieldAt(const std::string& b, size_t i, size_t field) {
  return IndexOffset(b) + 16 + i * kEntrySize + field * 8;
}

/// File offset of the block of index entry `i` (its u32 size | u32 CRC).
inline size_t BlockAt(const std::string& b, size_t i) {
  return GetU64(b, EntryFieldAt(b, i, kEntryOffset));
}

/// File offset of header field `field` of the record in the block at
/// `block`; coordinate `c` (0 x, 1 y, 2 t) of point `p` with PointAt.
inline size_t RecordFieldAt(size_t block, size_t field) {
  return block + 8 + field * 8;
}
inline size_t PointAt(size_t block, size_t p, size_t c) {
  return block + 8 + kRecordHeaderSize + (p * 3 + c) * 8;
}

/// Recomputes the CRC of the block at `block` over the payload its size
/// field claims; a no-op when that range leaves the image.
inline void RepairBlockCrc(std::string* b, size_t block) {
  if (block > b->size() || b->size() - block < 8) {
    return;
  }
  const uint64_t size = GetU64(*b, block) & 0xffffffffu;
  if (size > b->size() - block - 8) {
    return;
  }
  PutU32(b, block + 4, Crc32(std::string_view(*b).substr(block + 8, size)));
}

/// Recomputes the index CRC over the count and entries the footer and count
/// point at; a no-op when that range leaves the image.
inline void RepairIndexCrc(std::string* b) {
  if (b->size() < 16) {
    return;
  }
  const uint64_t index = IndexOffset(*b);
  if (index > b->size() || b->size() - index < 20) {
    return;
  }
  const uint64_t count = EntryCount(*b);
  if (count > (b->size() - index - 20) / kEntrySize) {
    return;
  }
  const size_t crc_at = index + 16 + count * kEntrySize;
  PutU32(b, crc_at,
         Crc32(std::string_view(*b).substr(index + 8, crc_at - index - 8)));
}

}  // namespace wst

}  // namespace testing_util
}  // namespace wcop

#endif  // WCOP_TESTS_TEST_UTIL_H_
