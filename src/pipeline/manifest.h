#ifndef WCOP_PIPELINE_MANIFEST_H_
#define WCOP_PIPELINE_MANIFEST_H_

/// The window journal — the durable commit log of the continuous
/// publication pipeline (DESIGN.md "Continuous publication pipeline").
///
/// A window is published in two steps: its output store is atomically
/// finished at `window_NNNNN.wst`, then its record is appended to the one
/// journal of the output directory, `window_journal.jnl`, and fsynced. The
/// append is the commit point. Each record is a snapshot-envelope record in
/// append mode (common/snapshot.h: magic, version, size, payload CRC)
/// holding the window's manifest and the carry-over records it spilled, so
/// a window commits exactly one new file and the carry chain needs no files
/// of its own.
///
/// On restart the pipeline reads the journal once. Records are taken in
/// order until the first one that is torn, fails its envelope or codec
/// check, or names the wrong window; the pipeline then adopts the longest
/// prefix whose window stores still match their recorded digests and
/// recomputes from the first window that does not, taking its carry-in from
/// the record before it. Because every window is deterministic given the
/// source store, the options and its carry-in, recomputation rewrites
/// byte-identical stores and records over any torn leftovers, which is what
/// makes `kill -9` at any lifecycle point recoverable to byte-identical
/// published output.
///
/// The manifest part of a payload is the whitespace text codec used by the
/// shard checkpoint (%.17g doubles, lossless round-trip); the carry records
/// use the store's binary record codec (AppendTrajectoryRecord). Neither
/// carries timestamps or paths, so the journal is byte-identical across
/// interrupted and uninterrupted runs.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "store/store_file.h"
#include "traj/trajectory.h"

namespace wcop {
namespace pipeline {

/// Snapshot-envelope format_version of window journal records. Version 1
/// was the per-window `window_NNNNN.mfr` manifest file.
inline constexpr uint32_t kWindowManifestVersion = 2;

/// File name of the window journal inside the output directory.
inline constexpr std::string_view kWindowJournalName = "window_journal.jnl";

struct WindowManifest {
  uint64_t config_fingerprint = 0;  ///< source index + pipeline options
  uint64_t window_index = 0;
  double window_start = 0.0;
  double window_end = 0.0;

  uint64_t input_fragments = 0;   ///< fragments fed to the anonymizer
  uint64_t published_fragments = 0;
  uint64_t suppressed_delta = 0;  ///< fragments this window suppressed
  uint64_t carried_in = 0;        ///< carry records merged from window-1
  uint64_t carried_out = 0;       ///< carry records spilled to window+1
  uint64_t clusters = 0;
  double ttd = 0.0;
  bool skipped = false;   ///< window unsatisfiable -> fully suppressed
  bool degraded = false;  ///< per-window anonymization degraded

  int64_t next_fragment_id = 0;  ///< first id unused after this window

  uint64_t input_crc = 0;  ///< CRC32/size of the window's input store image
  uint64_t input_size = 0;
  uint64_t output_crc = 0;  ///< CRC32/size of the published output store
  uint64_t output_size = 0;
};

/// One journal record: a window's manifest and the carry-over records it
/// spilled to the next window (manifest.carried_out of them).
struct WindowRecord {
  WindowManifest manifest;
  std::vector<Trajectory> carry;
};

/// Payload codec (deterministic; no timestamps, no paths): the manifest's
/// text fields, a `carry <n>` line, then n binary trajectory records.
/// Decoding returns kDataLoss for a missing or malformed field, a sign on
/// an unsigned field, '+' on the signed one, a carry count other than
/// carried_out, a carry record that does not decode, or any byte after the
/// last record.
std::string EncodeWindowRecord(const WindowRecord& record);
Result<WindowRecord> DecodeWindowRecord(std::string_view payload);

/// The append-only window journal of one output directory. Not
/// thread-safe; the pipeline appends from one thread.
class WindowJournal {
 public:
  /// A journal at `path`. Nothing is read or created until Read or Append.
  explicit WindowJournal(std::string path) : path_(std::move(path)) {}
  WindowJournal(const WindowJournal&) = delete;
  WindowJournal& operator=(const WindowJournal&) = delete;
  ~WindowJournal();

  /// Reads the journal's valid prefix into `*records` (record i is window
  /// i's): records are taken in order until the first one that is torn,
  /// fails its envelope or codec check, has another format version, or
  /// names a window other than its position. A missing file is an empty
  /// journal. Reading changes nothing on disk; the next Append cuts what
  /// lies after the records it keeps.
  Status Read(std::vector<WindowRecord>* records);

  /// Makes `record` the journal's record number
  /// `record.manifest.window_index`, which must not exceed the number of
  /// records kept: everything at or after that position (a torn tail, the
  /// records of windows being recomputed, an earlier attempt of the same
  /// window) is cut off first. Then appends the record and fsyncs it,
  /// creating the file on the first append. On failure the file is cut
  /// back to the record's start, so a retried append never leaves a
  /// duplicate record.
  Status Append(const WindowRecord& record);

 private:
  static constexpr uint64_t kUnknownSize = ~uint64_t{0};

  std::string path_;
  int fd_ = -1;                 ///< opened for writing on the first append
  std::vector<uint64_t> ends_;  ///< byte offset just past record i
  /// Bytes in the file; kUnknownSize after a failed append, so the next
  /// append cuts the file back before writing.
  uint64_t file_size_ = 0;
};

/// The manifest's store fingerprints (store/store_file.h). The pipeline
/// takes them from the writers that produced the stores and reads a file
/// back with DigestFile only to verify it on resume.
using store::DigestFile;
using store::FileDigest;

}  // namespace pipeline
}  // namespace wcop

#endif  // WCOP_PIPELINE_MANIFEST_H_
