#ifndef WCOP_COMMON_SNAPSHOT_H_
#define WCOP_COMMON_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"

namespace wcop {

/// Crash-consistent snapshot files (DESIGN.md "Crash recovery").
///
/// A snapshot is an opaque payload wrapped in a small self-validating
/// envelope and written atomically:
///
///   write <path>.tmp  ->  fsync  ->  rename(<path>.tmp, <path>)
///
/// so readers only ever observe either the previous complete file or the
/// new complete file, never a torn write. The on-disk envelope is
///
///   offset  size  field
///        0     8  magic "WCOPSNP1"
///        8     4  format_version (little-endian u32, caller-defined)
///       12     8  payload size (little-endian u64)
///       20     4  CRC32 of the payload (little-endian u32)
///       24     n  payload bytes
///
/// Readers verify magic, size, and CRC and return kDataLoss on any
/// mismatch — the caller (see anon/checkpoint.h) falls back to the
/// previous good snapshot instead of trusting a corrupt one.
///
/// Append mode lays the same envelope records end to end in one file (the
/// continuous pipeline's window journal, pipeline/manifest.h): each record
/// is written in place at the end of the last good one and fsynced, with no
/// temp file and no rename. A crash can leave a torn record at the end of
/// the file, so a reader takes records in order until the first one that
/// fails ParseSnapshotRecord, and a writer cuts everything after the last
/// record it keeps before it appends.

/// CRC-32 (ISO-HDLC polynomial, the zlib/PNG one) of `data`. Continuable:
/// passing the CRC of a prefix as `crc` yields the CRC of the prefix
/// followed by `data`, so Crc32(b, Crc32(a)) == Crc32(a + b).
/// Buffers of 64 bytes or more fold with carry-less multiplies where the
/// CPU has them (decided once per process), all others run slice-by-8.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// The two kernels behind Crc32, for its oracle test and the micro bench;
/// each returns what Crc32 returns. Crc32SliceBy8 runs on any CPU.
/// Crc32Clmul folds 64 bytes or more with PCLMULQDQ: on x86-64 it may be
/// called only where Crc32ClmulSupported() is true; on other CPUs it runs
/// slice-by-8.
uint32_t Crc32SliceBy8(std::string_view data, uint32_t crc = 0);
bool Crc32ClmulSupported();
uint32_t Crc32Clmul(std::string_view data, uint32_t crc = 0);

struct Snapshot {
  uint32_t format_version = 0;
  std::string payload;
};

/// Atomically replaces `path` with a snapshot of `payload`. On any failure
/// the previous contents of `path` are untouched (the temp file may be left
/// behind; a later successful write reuses the name). When `retry` is
/// non-null, transient I/O failures are retried under that policy.
Status WriteSnapshotFile(const std::string& path, std::string_view payload,
                         uint32_t format_version,
                         const RetryPolicy* retry = nullptr);

/// Reads and validates a snapshot. kNotFound when `path` does not exist;
/// kDataLoss when it exists but is torn or corrupt (bad magic, truncated
/// payload, CRC mismatch). Corruption is never retried; transient open /
/// read failures are, when `retry` is given.
Result<Snapshot> ReadSnapshotFile(const std::string& path,
                                  const RetryPolicy* retry = nullptr);

/// Rotating two-deep write: the previous good snapshot at `path` is kept as
/// `path`.prev before the new one lands. Combined with
/// ReadSnapshotWithFallback, a crash *during* a checkpoint write (or a
/// corrupted current file) costs at most one checkpoint interval of
/// progress, never the whole run.
Status WriteSnapshotRotating(const std::string& path, std::string_view payload,
                             uint32_t format_version,
                             const RetryPolicy* retry = nullptr);

/// Reads `path`, falling back to `path`.prev when the current file is
/// missing or fails validation. kNotFound only when neither file yields a
/// valid snapshot.
Result<Snapshot> ReadSnapshotWithFallback(const std::string& path,
                                          const RetryPolicy* retry = nullptr);

/// Bytes of the envelope header that precedes every payload.
inline constexpr size_t kSnapshotHeaderSize = 8 + 4 + 8 + 4;

/// One envelope record inside a buffer of append-mode records.
struct SnapshotRecord {
  uint32_t format_version = 0;
  std::string_view payload;  ///< view into the parsed buffer
  size_t end = 0;            ///< offset just past the record
};

/// Parses the envelope record that starts at `offset` of `bytes`.
/// kDataLoss when it is torn (shorter than its header or than the payload
/// its header claims) or fails its magic or CRC check. Allocates nothing.
Result<SnapshotRecord> ParseSnapshotRecord(std::string_view bytes,
                                           size_t offset);

/// Append mode: writes one envelope record of `payload` at byte `offset` of
/// the file open for writing as `fd` (`name` labels errors), then fsyncs
/// it, under the snapshot.write, snapshot.write_payload and snapshot.fsync
/// failpoints. On failure the file is cut back to `offset`, so a retried
/// append leaves neither a torn nor a duplicate record.
Status AppendSnapshotRecord(int fd, const std::string& name, uint64_t offset,
                            std::string_view payload,
                            uint32_t format_version);

}  // namespace wcop

#endif  // WCOP_COMMON_SNAPSHOT_H_
