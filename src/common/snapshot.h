#ifndef WCOP_COMMON_SNAPSHOT_H_
#define WCOP_COMMON_SNAPSHOT_H_

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

/// CRC-32 (ISO-HDLC polynomial, the zlib/PNG one) of `data`. Continuable:
/// passing the CRC of a prefix as `crc` yields the CRC of the prefix
/// followed by `data`, so Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

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

}  // namespace wcop

#endif  // WCOP_COMMON_SNAPSHOT_H_
