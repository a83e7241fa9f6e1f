#include "traj/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <system_error>
#include <vector>

#include "common/failpoint.h"
#include "common/text_codec.h"

namespace wcop {

namespace {

constexpr size_t kCsvBufferBytes = 64 * 1024;

// Parses one cell to exactly the double strtod reads from its NUL-terminated
// copy. from_chars agrees with it bit for bit when it takes the whole cell
// and gives a finite value; every other cell -- leading blanks, '+', hex, a
// trailing '\r', range errors, inf, NaN payloads (which from_chars drops),
// trailing junk -- goes through strtod itself. False when no prefix parses.
bool ParseCell(std::string_view cell, double* value) {
  const char* last = cell.data() + cell.size();
  const std::from_chars_result r = std::from_chars(cell.data(), last, *value);
  if (r.ptr == last && r.ec == std::errc() && std::isfinite(*value)) {
    return true;
  }
  const std::string copy(cell);
  char* end = nullptr;
  *value = std::strtod(copy.c_str(), &end);
  return end != copy.c_str();
}

// Splits `line` into its first 8 cells the way std::getline(',') does (a
// trailing comma ends the row one cell short) and parses each. A plain
// decimal within text::ParseExactDecimal's bounds that ends at a comma or
// at the end of the line, such as WriteCsvRows' %lld and %.6f cells, is
// read and split in one pass; any other cell is cut at its comma and goes
// through ParseCell.
Status ParseCsvRow(std::string_view line, const std::string& path,
                   size_t line_no, double fields[8]) {
  const char* const end = line.data() + line.size();
  int n = 0;
  for (size_t pos = 0; n < 8 && pos < line.size(); ++n) {
    const char* cell_end =
        text::ParseExactDecimal(line.data() + pos, end, &fields[n]);
    if (cell_end == nullptr || (cell_end != end && *cell_end != ',')) {
      const size_t comma = std::min(line.find(',', pos), line.size());
      const std::string_view cell = line.substr(pos, comma - pos);
      if (!ParseCell(cell, &fields[n])) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad numeric cell '" + std::string(cell) +
                                  "'");
      }
      cell_end = line.data() + comma;
    }
    pos = static_cast<size_t>(cell_end - line.data()) + 1;
  }
  if (n != 8) {
    return Status::ParseError(path + ":" + std::to_string(line_no) +
                              ": expected 8 cells, got " + std::to_string(n));
  }
  return Status::OK();
}

// The integer an id or k cell names: the value truncated toward zero, or
// the type's minimum when it does not fit (NaN, inf, 1e400). That minimum is
// what the x86-64 conversion yields; spelling it out keeps an out-of-range
// cell from being an undefined cast.
template <typename Int>
Int TruncateCell(double v) {
  constexpr double kMin = static_cast<double>(std::numeric_limits<Int>::min());
  return v > kMin - 1.0 && v < -kMin ? static_cast<Int>(v)
                                     : std::numeric_limits<Int>::min();
}

}  // namespace

void WriteCsvRows(const Trajectory& t, std::ostream* out) {
  char line[256];
  for (const Point& p : t.points()) {
    std::snprintf(line, sizeof(line),
                  "%lld,%lld,%lld,%d,%.6f,%.6f,%.6f,%.6f\n",
                  static_cast<long long>(t.id()),
                  static_cast<long long>(t.object_id()),
                  static_cast<long long>(t.parent_id()), t.requirement().k,
                  t.requirement().delta, p.x, p.y, p.t);
    *out << line;
  }
}

Status WriteDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << kCsvHeader;
  for (const Trajectory& t : dataset.trajectories()) {
    WriteCsvRows(t, &out);
  }
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

Result<CsvTrajectoryReader> CsvTrajectoryReader::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return CsvTrajectoryReader(path, file);
}

Status CsvTrajectoryReader::ForEach(
    const RunContext* run_context, telemetry::Counter* rows,
    const std::function<Status(Trajectory)>& sink) {
  std::vector<char> buf(kCsvBufferBytes);
  size_t begin = 0;  // [begin, end) of `buf` is read but not yet consumed
  size_t end = 0;
  bool eof = false;
  Trajectory current;  // ids and requirement of the trajectory being read
  std::vector<Point> points;  // its points, in one buffer reused by all
  bool have_current = false;
  // Hands `current` to the sink with a vector of exactly its points.
  const auto flush = [&]() {
    current.mutable_points().assign(points.begin(), points.end());
    points.clear();
    return sink(std::move(current));
  };
  size_t line_no = 0;
  for (;;) {
    const char* line = buf.data() + begin;
    const char* newline =
        static_cast<const char*>(std::memchr(line, '\n', end - begin));
    if (newline == nullptr && !eof) {
      // Refill behind the unconsumed tail, doubling the buffer first when
      // that tail (part of one line) fills more than half of it.
      std::memmove(buf.data(), line, end - begin);
      end -= begin;
      begin = 0;
      if (end > buf.size() / 2) {
        buf.resize(buf.size() * 2);
      }
      WCOP_FAILPOINT("csv.read_line");
      const size_t got =
          std::fread(buf.data() + end, 1, buf.size() - end, file_.get());
      if (got < buf.size() - end && std::ferror(file_.get()) != 0) {
        return Status::IoError("read failed: " + path_);
      }
      eof = got == 0;
      end += got;
      continue;
    }
    if (newline == nullptr) {
      if (begin == end) {
        break;
      }
      newline = buf.data() + end;  // the last line has no '\n'
    }
    const std::string_view text(line, static_cast<size_t>(newline - line));
    begin = std::min(end, begin + text.size() + 1);
    ++line_no;
    // Strided context poll: a line is microseconds of work.
    if (line_no % 4096 == 0) {
      WCOP_RETURN_IF_ERROR(CheckRunContext(run_context));
    }
    if (text.empty() || text.starts_with("traj_id")) {
      continue;  // Skip blank lines and the header.
    }
    telemetry::CounterAdd(rows);
    double fields[8];
    WCOP_RETURN_IF_ERROR(ParseCsvRow(text, path_, line_no, fields));
    const int64_t traj_id = TruncateCell<int64_t>(fields[0]);
    if (!have_current || current.id() != traj_id) {
      if (have_current) {
        WCOP_RETURN_IF_ERROR(flush());
      }
      current = Trajectory(traj_id, {});
      current.set_object_id(TruncateCell<int64_t>(fields[1]));
      current.set_parent_id(TruncateCell<int64_t>(fields[2]));
      current.set_requirement(
          Requirement{TruncateCell<int>(fields[3]), fields[4]});
      have_current = true;
    }
    points.emplace_back(fields[5], fields[6], fields[7]);
  }
  if (have_current) {
    WCOP_RETURN_IF_ERROR(flush());
  }
  return Status::OK();
}

Result<Dataset> ReadDatasetCsv(const std::string& path,
                               const RunContext* run_context,
                               telemetry::Telemetry* telemetry) {
  WCOP_TRACE_SPAN(telemetry, "parse/csv");
  telemetry::Counter* csv_rows =
      telemetry != nullptr ? telemetry->metrics().GetCounter("parse.csv_rows")
                           : nullptr;
  WCOP_ASSIGN_OR_RETURN(CsvTrajectoryReader reader,
                        CsvTrajectoryReader::Open(path));
  Dataset dataset;
  WCOP_RETURN_IF_ERROR(
      reader.ForEach(run_context, csv_rows, [&dataset](Trajectory t) {
        dataset.Add(std::move(t));
        return Status::OK();
      }));
  WCOP_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<Dataset> ReadDatasetCsvRetry(const std::string& path,
                                    const RetryPolicy& retry,
                                    const RunContext* run_context,
                                    telemetry::Telemetry* telemetry) {
  return RetryResultCall<Dataset>(retry, [&]() {
    return ReadDatasetCsv(path, run_context, telemetry);
  });
}

}  // namespace wcop
