#ifndef WCOP_STORE_STORE_FILE_H_
#define WCOP_STORE_STORE_FILE_H_

/// Out-of-core trajectory store — the on-disk substrate of the sharded
/// anonymization pipeline (DESIGN.md "Dataset store & sharding").
///
/// A store file holds one trajectory per block plus a metadata-rich index,
/// so a reader can partition or randomly access a multi-gigabyte dataset
/// without ever materializing it. Layout (format version 2; all integers
/// little-endian, all doubles raw IEEE-754 bits):
///
///   [0..8)    magic "WCOPSTR1"
///   [8..12)   format version (u32)
///   [12..16)  reserved (u32, zero)
///   blocks    one per trajectory, appended in write order:
///               u32 payload_size | u32 crc32(payload) | payload
///             payload is the binary record of AppendTrajectoryRecord():
///               id, object_id, parent_id, k (i64 each), delta (f64),
///               n (u64) — a 48-byte header — then n * (x, y, t) as f64,
///             so every block is exactly 8 + 48 + 24 * n bytes.
///   index     "WCOPSIDX" | u64 count | count * 104-byte entries | u32 crc
///             each entry: id, offset, block_size, num_points (8 bytes
///             each), then k, delta, MBR min_x/min_y/max_x/max_y,
///             t_min, t_max as raw 8-byte values. The index alone carries
///             everything the spatio-temporal partitioner needs.
///   footer    u64 index_offset | magic "WCOPSEND"   (last 16 bytes)
///
/// Corruption anywhere (bit flip, truncation, torn write) surfaces as
/// kDataLoss — per-block CRCs mean a damaged block never yields a torn
/// trajectory, and undamaged blocks stay readable. Writes go to
/// `<path>.tmp` and rename into place on Finish(), matching the
/// common/snapshot atomicity conventions. Every writer also keeps the
/// CRC32 and size of the whole image it emits, so a caller that must
/// fingerprint a store it just wrote never reads it back.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/artifact_registry.h"
#include "common/result.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace wcop {
namespace store {

/// Store file format version written by this build.
inline constexpr uint32_t kStoreFormatVersion = 2;

/// One index row: everything the partitioner and the random-access reader
/// need to know about a trajectory without touching its block.
struct StoreEntry {
  int64_t id = 0;
  uint64_t offset = 0;      ///< file offset of the block header
  uint64_t block_size = 0;  ///< 8-byte block header + payload
  uint64_t num_points = 0;
  int64_t k = 2;            ///< privacy requirement k_i
  double delta = 0.0;       ///< quality requirement delta_i (metres)
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;  ///< MBR
  double t_min = 0.0, t_max = 0.0;  ///< trajectory lifetime
};

/// CRC32 and size of a store image (or any file's bytes), as recorded in
/// the continuous pipeline's window manifests.
struct FileDigest {
  uint64_t crc = 0;
  uint64_t size = 0;
};

/// Appends the binary record of `t` (bit-exact, see the layout above) to
/// `*out`. Exposed so the shard checkpoint codec reuses the block encoding.
void AppendTrajectoryRecord(std::string* out, const Trajectory& t);

/// Decodes one record starting at `*pos` in `payload`; advances `*pos` past
/// it. Returns kDataLoss when the record overruns `payload`, its k does not
/// fit an int, or the decoded trajectory fails Trajectory::Validate().
Result<Trajectory> ParseTrajectoryRecord(std::string_view payload,
                                         size_t* pos);

/// Streaming store writer: Append() trajectories one at a time (nothing but
/// the index row is retained in memory), then Finish() writes the index and
/// footer and atomically renames the file into place. An unfinished writer
/// removes its temp file on destruction, so a crash or early error never
/// leaves a partial store at the target path.
///
/// A writer created with an empty path encodes the same image without
/// creating a file: it touches no disk and fires no store.* failpoint, and
/// its index() and digest() equal those of a file-backed writer fed the
/// same trajectories.
class TrajectoryStoreWriter {
 public:
  static Result<TrajectoryStoreWriter> Create(const std::string& path);

  TrajectoryStoreWriter(TrajectoryStoreWriter&&) = default;
  TrajectoryStoreWriter& operator=(TrajectoryStoreWriter&&) = default;
  ~TrajectoryStoreWriter();

  /// Validates and appends one trajectory block.
  Status Append(const Trajectory& t);

  /// Writes index + footer, fsyncs, and renames `<path>.tmp` -> `path` (a
  /// pathless writer only encodes them into its digest). The writer is
  /// closed afterwards regardless of the outcome.
  Status Finish();

  size_t trajectories_written() const { return index_.size(); }
  const std::string& path() const { return path_; }

  /// Index rows of the blocks appended so far (offsets within the image).
  const std::vector<StoreEntry>& index() const { return index_; }

  /// CRC32 and size of every byte emitted so far; after a successful
  /// Finish(), of the whole store image (what DigestFile would read back).
  FileDigest digest() const { return FileDigest{crc_, size_}; }

 private:
  TrajectoryStoreWriter() = default;

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) {
        std::fclose(f);
      }
    }
  };

  /// Feeds `n` bytes into the running digest and, when file-backed, the
  /// temp file.
  Status Emit(const char* data, size_t n);

  std::string path_;  // empty: encode and digest only, no file
  std::string tmp_path_;
  // Marks the temp file live for the duration of the write so a concurrent
  // stale-artifact sweep never reclaims it from under the writer.
  ScopedLiveArtifact live_tmp_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<StoreEntry> index_;
  uint32_t crc_ = 0;   // running CRC32 of the emitted image
  uint64_t size_ = 0;  // bytes emitted: the next block's offset
  bool finished_ = false;
};

/// Random-access store reader. Open() loads and verifies only the header
/// and the index; trajectory blocks are read (and CRC-checked) on demand,
/// so memory stays proportional to the index, not the dataset. All Read*
/// methods are thread-safe and lock-free: each block is one positional
/// read (pread) of exactly its indexed size, so concurrent reads proceed in
/// parallel.
class TrajectoryStoreReader {
 public:
  static Result<TrajectoryStoreReader> Open(const std::string& path);

  size_t size() const { return index_.size(); }
  const std::vector<StoreEntry>& index() const { return index_; }
  const std::string& path() const { return path_; }
  uint64_t total_points() const { return total_points_; }

  /// Reads the trajectory at index position `i` (write order).
  Result<Trajectory> Read(size_t i) const;

  /// Random access by trajectory id; kNotFound when absent.
  Result<Trajectory> ReadById(int64_t id) const;

  /// Materializes the whole store (the monolithic path; the sharded
  /// pipeline reads per-shard subsets instead).
  Result<Dataset> ReadAll() const;

 private:
  TrajectoryStoreReader() = default;

  /// Owns the read-only descriptor; move-only, so exactly one reader
  /// closes it.
  class Descriptor {
   public:
    Descriptor() = default;
    explicit Descriptor(int fd) : fd_(fd) {}
    Descriptor(Descriptor&& other) noexcept
        : fd_(std::exchange(other.fd_, -1)) {}
    Descriptor& operator=(Descriptor&& other) noexcept {
      std::swap(fd_, other.fd_);
      return *this;
    }
    ~Descriptor();
    int get() const { return fd_; }

   private:
    int fd_ = -1;
  };

  std::string path_;
  Descriptor fd_;
  std::vector<StoreEntry> index_;
  std::unordered_map<int64_t, size_t> by_id_;
  uint64_t total_points_ = 0;
};

/// Writes every trajectory of `dataset` to a store file at `path`
/// (Create + Append* + Finish).
Status WriteDatasetStore(const Dataset& dataset, const std::string& path);

/// CRC32 and size of the whole file at `path` (any file, not only a store),
/// read in fixed-size chunks so memory stays constant. kNotFound when the
/// file does not exist.
Result<FileDigest> DigestFile(const std::string& path);

/// Stale-artifact janitor: removes every orphaned `*.tmp` entry in `dir`
/// and returns how many were swept. Every durable writer in the codebase
/// (snapshot envelope, store writer, the service's atomic output publish)
/// follows the write-`<path>.tmp` → fsync → rename protocol, so after a
/// crash anything still named `*.tmp` is an orphan of an interrupted
/// write — never a complete artifact. Temp files registered in the
/// process-wide live-artifact registry (common/artifact_registry.h) belong
/// to an in-flight writer and are skipped, so sweeping a directory a live
/// job is publishing into is safe: only true orphans are reclaimed. A
/// missing `dir` is not an error (nothing to sweep). Each removal is logged
/// and counted on the `janitor.stale_removed` telemetry counter; skipped
/// live files are counted on `janitor.live_skipped`.
Result<size_t> SweepStaleArtifacts(const std::string& dir,
                                   telemetry::Telemetry* telemetry = nullptr);

}  // namespace store
}  // namespace wcop

#endif  // WCOP_STORE_STORE_FILE_H_
