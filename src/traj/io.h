#ifndef WCOP_TRAJ_IO_H_
#define WCOP_TRAJ_IO_H_

#include <cstdio>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "common/retry.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "traj/dataset.h"

namespace wcop {

/// Flat-file dataset exchange format used by the examples and the benchmark
/// harness (one point per line):
///
///   traj_id,object_id,parent_id,k,delta,x,y,t
///
/// The header line is written on export and tolerated on import.
inline constexpr std::string_view kCsvHeader =
    "traj_id,object_id,parent_id,k,delta,x,y,t\n";

/// Writes `t` as exchange-CSV rows, one per point (ids and k as integers,
/// delta and coordinates at %.6f). Every CSV writer goes through it.
void WriteCsvRows(const Trajectory& t, std::ostream* out);

/// Writes the dataset to `path`; overwrites any existing file.
Status WriteDatasetCsv(const Dataset& dataset, const std::string& path);

/// Streams an exchange CSV one trajectory at a time, the one parser behind
/// ReadDatasetCsv and ConvertCsvToStore. The file is read through a 64 KiB
/// buffer (doubled only for a line longer than half of it), so memory holds
/// the buffer and one trajectory, never the file.
///
/// Row grammar: blank lines and lines starting with `traj_id` are skipped;
/// a row's first 8 comma-separated cells are read (a trailing comma is a
/// missing cell, cells past the 8th are ignored), and each must start with
/// a number as strtod reads it (leading blanks, `+`, hex, inf/nan and
/// trailing junk included). The id and k cells truncate toward zero; a
/// value that does not fit (NaN, inf) becomes the type's minimum. Each run
/// of consecutive rows with one traj_id is one trajectory.
class CsvTrajectoryReader {
 public:
  /// Opens `path` for reading (kIoError when it cannot be opened).
  static Result<CsvTrajectoryReader> Open(const std::string& path);

  /// Reads the file to its end and hands every trajectory to `sink` once its
  /// last row has been read. Stops at the first error and returns it: the
  /// sink's, kParseError naming the line, kIoError when a read fails, or a
  /// `run_context` trip (polled every 4096 lines). `rows`, when set, counts
  /// the data rows parsed. Call it once per reader.
  Status ForEach(const RunContext* run_context, telemetry::Counter* rows,
                 const std::function<Status(Trajectory)>& sink);

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  CsvTrajectoryReader(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
};

/// Reads a dataset previously written by WriteDatasetCsv. Points belonging
/// to the same traj_id must be contiguous and time-ordered. An optional
/// RunContext bounds the read (deadline / cancellation, polled every few
/// thousand lines). An optional telemetry sink records `parse.csv_rows`
/// and a `parse/csv` span.
Result<Dataset> ReadDatasetCsv(const std::string& path,
                               const RunContext* run_context = nullptr,
                               telemetry::Telemetry* telemetry = nullptr);

/// ReadDatasetCsv under a RetryPolicy: transient I/O failures (kIoError —
/// NFS blips, locked files) restart the whole read after a bounded
/// exponential backoff; parse errors and context trips are never retried.
Result<Dataset> ReadDatasetCsvRetry(const std::string& path,
                                    const RetryPolicy& retry,
                                    const RunContext* run_context = nullptr,
                                    telemetry::Telemetry* telemetry = nullptr);

}  // namespace wcop

#endif  // WCOP_TRAJ_IO_H_
