// Differential test of the streaming CSV reader (traj/io.h) against the
// getline/istringstream/strtod row loop it replaced, kept below verbatim as
// the oracle. Over seeded adversarial corpora both must accept the same
// trajectories with every double equal bit for bit, or fail with the same
// Status; ConvertCsvToStore must write the bytes WriteDatasetStore writes
// for the oracle's dataset. The reader's exact fast path for plain decimals
// (text::ParseExactDecimal) is also pinned at each of its bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/text_codec.h"
#include "data/store_convert.h"
#include "store/store_file.h"
#include "traj/io.h"

namespace wcop {
namespace {

namespace fs = std::filesystem;

// The reader's buffer size (traj/io.cc); the edge cases are placed on it.
constexpr size_t kBuffer = 64 * 1024;

// ReadDatasetCsv's row loop before the streaming reader, verbatim but for
// its failpoint and telemetry, and without the closing Validate() (see
// OracleRead) so that unvalidated trajectories compare too. Its integer
// casts of out-of-range cells are undefined in C++; on x86-64 they yield the
// type's minimum, which the reader now spells out.
Result<Dataset> OracleParse(const std::string& path,
                            const RunContext* run_context) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  Dataset dataset;
  Trajectory current;
  bool have_current = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strided context poll: a line is microseconds of work.
    if (line_no % 4096 == 0) {
      WCOP_RETURN_IF_ERROR(CheckRunContext(run_context));
    }
    if (line.empty() || line.rfind("traj_id", 0) == 0) {
      continue;  // Skip blank lines and the header.
    }
    std::istringstream ss(line);
    std::string cell;
    double fields[8];
    int n = 0;
    while (n < 8 && std::getline(ss, cell, ',')) {
      char* end = nullptr;
      fields[n] = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str()) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad numeric cell '" + cell + "'");
      }
      ++n;
    }
    if (n != 8) {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": expected 8 cells, got " +
                                std::to_string(n));
    }
    const int64_t traj_id = static_cast<int64_t>(fields[0]);
    if (!have_current || current.id() != traj_id) {
      if (have_current) {
        dataset.Add(std::move(current));
      }
      current = Trajectory(traj_id, {});
      current.set_object_id(static_cast<int64_t>(fields[1]));
      current.set_parent_id(static_cast<int64_t>(fields[2]));
      current.set_requirement(
          Requirement{static_cast<int>(fields[3]), fields[4]});
      have_current = true;
    }
    current.AppendPoint(Point(fields[5], fields[6], fields[7]));
  }
  if (have_current) {
    dataset.Add(std::move(current));
  }
  return dataset;
}

Result<Dataset> OracleRead(const std::string& path,
                           const RunContext* run_context) {
  WCOP_ASSIGN_OR_RETURN(Dataset dataset, OracleParse(path, run_context));
  WCOP_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

// The reader's trajectory stream, unvalidated, as OracleParse returns it.
Result<Dataset> ReaderParse(const std::string& path,
                            const RunContext* run_context) {
  WCOP_ASSIGN_OR_RETURN(CsvTrajectoryReader reader,
                        CsvTrajectoryReader::Open(path));
  Dataset dataset;
  WCOP_RETURN_IF_ERROR(reader.ForEach(run_context, nullptr, [&](Trajectory t) {
    dataset.Add(std::move(t));
    return Status::OK();
  }));
  return dataset;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Empty when both outcomes agree: the same Status (code and message), or
// the same trajectories with every field and double bit equal.
std::string FirstDifference(const Result<Dataset>& want,
                            const Result<Dataset>& got) {
  if (!want.ok() || !got.ok()) {
    if (want.ok() != got.ok() || want.status().code() != got.status().code() ||
        want.status().message() != got.status().message()) {
      return "status: want " + want.status().ToString() + ", got " +
             got.status().ToString();
    }
    return "";
  }
  if (want->size() != got->size()) {
    return "trajectories: want " + std::to_string(want->size()) + ", got " +
           std::to_string(got->size());
  }
  for (size_t i = 0; i < want->size(); ++i) {
    const Trajectory& a = (*want)[i];
    const Trajectory& b = (*got)[i];
    const std::string at = "trajectory #" + std::to_string(i) + ": ";
    if (a.id() != b.id() || a.object_id() != b.object_id() ||
        a.parent_id() != b.parent_id() ||
        a.requirement().k != b.requirement().k) {
      return at + "ids or k differ";
    }
    if (Bits(a.requirement().delta) != Bits(b.requirement().delta)) {
      return at + "delta bits differ";
    }
    if (a.size() != b.size()) {
      return at + "point counts differ";
    }
    for (size_t j = 0; j < a.size(); ++j) {
      if (Bits(a[j].x) != Bits(b[j].x) || Bits(a[j].y) != Bits(b[j].y) ||
          Bits(a[j].t) != Bits(b[j].t)) {
        return at + "point " + std::to_string(j) + " bits differ";
      }
    }
  }
  return "";
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Cells at each edge of text::ParseExactDecimal's form, and whether it
// takes them whole: the 2^53 significand bound, also with the point inside
// the digits, where rounding w to a double before dividing would round
// twice; 19 and 20 digits, leading zeros included; cells whose 20 digits a
// 64-bit accumulator would wrap to 1 (2^64 + 1) or to 0 (m * 2^64), with the
// point anywhere, signs and leading or trailing zeros; 18 and 19 digits
// after the point, and 22 and 23 on a small significand (10^23 is not a
// double); signed and leading zeros; and cells just outside the form.
struct EdgeCell {
  std::string text;
  bool exact;
};

const std::vector<EdgeCell>& EdgeCells() {
  static const std::vector<EdgeCell> cells = {
      {"9007199254740992", true},
      {"9007199254740993", false},
      {"900719925474099.2", true},
      {"9007199254740992.0", false},
      {"90071992547409.93", false},
      {"900719925474099.5", false},
      {"-9007199254740993.0", false},
      {"0.009007199254740992", true},
      {"0.0009007199254740992", false},
      {"1234567890123456789", false},
      {"12345678901234567890", false},
      {"000000000000000001.5", true},
      {"0000000000000000001.5", false},
      {"18446744073709551617", false},
      {"1844674407370955161.7", false},
      {"36893488147419103233", false},
      {"18446744073709551616", false},
      {"1844674407370955161.6", false},
      {"9223372036854775808.000000", false},
      {"-92233720368547758080", false},
      {"0.36893488147419103232", false},
      {"-5534023222112865484.8", false},
      {"73786976294838206464000", false},
      {"0.000000000000000001", true},
      {"0.0000000000000000001", false},
      {"0.000000000012345678", true},
      {"0.0000000000000000000001", false},
      {"0.00000000000000000000001", false},
      {"0.00000000000000000000007", false},
      {"-0.000000", true},
      {"-0", true},
      {"0", true},
      {"007.250000", true},
      {"-000.5", true},
      {"123.456789", true},
      {"-87654.321000", true},
      {"1.", false},
      {"-.5", false},
      {"1e3", false},
      {"1E3", false},
      {"0x10", false},
      {"--1", false},
      {"1.2.3", false},
      {"1-", false},
      {"1 ", false},
      {"1\t", false},
      {"-1\r", false},
  };
  return cells;
}

// Cells strtod reads differently from from_chars (or not at all): signs,
// blanks, hex, inf and NaN with payloads, range errors, subnormals, a
// trailing '\r', trailing junk, embedded NULs, empty and sign-only cells;
// then every edge cell of the exact fast path.
const std::vector<std::string>& Tokens() {
  static const std::vector<std::string> tokens = [] {
    std::vector<std::string> t = {
        "+4", " 7", "\t3", "+", "-", "", " ", "0x1p3", "0X1.8P1", "-0x10",
        "nan(123)", "NAN(abc)", "-nan", "nan", "-nan(0x7)", "inf", "-inf",
        "infinity", "INF", "1e400", "-1e400", "1e-400", "4e-320",
        "2.4703282292062327e-324", "2.2250738585072011e-308", "-0", "1\r",
        "12\r", "12abc", ".5", "5.", "1e", "1e+", "e5", "x", "0x",
        "9007199254740993", "1.7976931348623157e308", "1.7976931348623159e308",
        "0.1000000000000000055511151231257827021181583404541015625",
        "123456789012345678901234567890", std::string("\0" "5", 2),
        std::string("5\0" "9", 3), "3 4", "7;8",
        // Integer-cell bounds: 2^63 and past it, the largest double below it,
        // -2^63, and the edges of int for k.
        "9223372036854775807", "9223372036854774784", "-9223372036854775808",
        "-9223372036854777856", "1e19", "2147483647.9", "2147483648",
        "-2147483648.9", "-2147483649"};
    for (const EdgeCell& edge : EdgeCells()) {
      t.push_back(edge.text);
    }
    return t;
  }();
  return tokens;
}

// `v` written the way some CSV producer might write it. Only %.6f and %.17g
// keep the order of timestamps; the other forms also pick any finite bit
// pattern (subnormals, huge exponents, -0).
std::string CleanNumber(Rng* rng, double v, bool keep_order = false) {
  char buf[64];
  switch (rng->UniformIndex(keep_order ? 2 : 5)) {
    case 0:
      std::snprintf(buf, sizeof(buf), "%.6f", v);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf), "%.3e", v);
      break;
    case 3:
      std::snprintf(buf, sizeof(buf), "%g", v);
      break;
    default: {
      uint64_t bits = rng->engine()();
      double any = 0.0;
      std::memcpy(&any, &bits, sizeof(any));
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(any) ? any : v);
      break;
    }
  }
  return buf;
}

struct CorpusShape {
  size_t trajectories = 0;
  size_t max_points = 0;
  double cell_noise = 0.0;  // chance a cell is replaced by a token
  double row_noise = 0.0;   // chance of a row or line-level mutation
  bool crlf = false;
};

// A corpus in the exchange format: mostly well-formed rows of contiguous,
// time-ordered trajectories, mutated at the shape's rates.
std::string MakeCorpus(Rng* rng, const CorpusShape& shape) {
  std::string out;
  const std::string eol = shape.crlf ? "\r\n" : "\n";
  if (rng->Bernoulli(0.8)) {
    out += "traj_id,object_id,parent_id,k,delta,x,y,t" + eol;
  }
  for (size_t i = 0; i < shape.trajectories; ++i) {
    const int64_t id = rng->Bernoulli(0.02)
                           ? static_cast<int64_t>(rng->UniformIndex(4))
                           : static_cast<int64_t>(i) * 3 - 40;
    const std::vector<std::string> head = {
        std::to_string(id), std::to_string(rng->UniformInt(-5, 50)),
        std::to_string(rng->UniformInt(-1, 9)),
        std::to_string(rng->UniformInt(1, 9)),
        CleanNumber(rng, rng->UniformReal(10.0, 250.0), /*keep_order=*/true)};
    const size_t points = 1 + rng->UniformIndex(shape.max_points);
    double t = rng->UniformReal(-1e6, 1e6);
    for (size_t j = 0; j < points; ++j) {
      t += rng->UniformReal(0.5, 60.0);
      std::vector<std::string> row = head;
      row.push_back(CleanNumber(rng, rng->UniformReal(-5e4, 5e4)));
      row.push_back(CleanNumber(rng, rng->UniformReal(-5e4, 5e4)));
      row.push_back(CleanNumber(rng, t, /*keep_order=*/true));
      for (std::string& cell : row) {
        if (rng->Bernoulli(shape.cell_noise)) {
          cell = Tokens()[rng->UniformIndex(Tokens().size())];
        }
      }
      std::string line = row[0];
      for (size_t c = 1; c < row.size(); ++c) {
        line += "," + row[c];
      }
      if (rng->Bernoulli(shape.row_noise)) {
        switch (rng->UniformIndex(8)) {
          case 0:  // one cell short
            line.erase(line.rfind(','));
            break;
          case 1:  // a trailing comma: a missing 9th cell, ignored
            line += ",";
            break;
          case 2:  // seven cells and a trailing comma: one cell short
            line.erase(line.rfind(',') + 1);
            break;
          case 3:  // 9+ cells
            line += ",9,junk,";
            break;
          case 4:  // a header line mid-file
            out += "traj_id,object_id,parent_id,k,delta,x,y,t" + eol;
            break;
          case 5:  // blank lines
            out += eol == "\n" ? "\n\n" : "\n";
            break;
          case 6:  // an empty cell
            line.insert(line.find(',') + 1, ",");
            break;
          default:  // a line that only looks like a header
            out += "traj_idx" + eol;
            break;
        }
      }
      out += line + eol;
    }
  }
  if (!out.empty() && rng->Bernoulli(0.3)) {
    out.pop_back();  // the last line ends without '\n' (or with a bare '\r')
  }
  return out;
}

class CsvReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "wcop_csv_reader_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Write(const std::string& bytes) {
    const std::string path = (dir_ / "corpus.csv").string();
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
  }

  // Runs every comparison on `bytes`; returns whether the oracle accepted
  // a non-empty dataset.
  bool Check(const std::string& bytes, const RunContext* run_context,
             const std::string& label) {
    const std::string path = Write(bytes);
    EXPECT_EQ(FirstDifference(OracleParse(path, run_context),
                              ReaderParse(path, run_context)),
              "")
        << label;
    const Result<Dataset> oracle = OracleRead(path, run_context);
    EXPECT_EQ(FirstDifference(oracle, ReadDatasetCsv(path, run_context)), "")
        << label;
    if (!oracle.ok() || oracle->size() == 0) {
      return false;
    }
    const std::string converted = (dir_ / "converted.wst").string();
    const std::string written = (dir_ / "written.wst").string();
    const Result<StoreConvertStats> stats =
        ConvertCsvToStore(path, converted, run_context);
    EXPECT_TRUE(stats.ok()) << label << ": " << stats.status();
    EXPECT_TRUE(store::WriteDatasetStore(*oracle, written).ok()) << label;
    EXPECT_TRUE(ReadBytes(converted) == ReadBytes(written)) << label;
    return true;
  }

  fs::path dir_;
};

TEST_F(CsvReaderTest, MatchesTheGetlineStrtodOracle) {
  Rng rng(1919);
  const double kNoise[] = {0.0, 0.0005, 0.005, 0.05};
  size_t accepted = 0;
  size_t rejected = 0;
  for (int round = 0; round < 1500; ++round) {
    CorpusShape shape;
    shape.trajectories = 1 + rng.UniformIndex(12);
    shape.max_points = 1 + rng.UniformIndex(16);
    shape.cell_noise = kNoise[rng.UniformIndex(4)];
    shape.row_noise = kNoise[rng.UniformIndex(4)];
    shape.crlf = rng.Bernoulli(0.2);
    const bool ok = Check(MakeCorpus(&rng, shape), nullptr,
                          "round " + std::to_string(round));
    (ok ? accepted : rejected) += 1;
    if (HasFailure()) {
      break;
    }
  }
  // Both outcomes must be common, or the corpus is not reaching either the
  // accepted values or the error paths.
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(rejected, 300u);
}

// Corpora of several buffers: lines straddle refills, and a cancelled
// context trips at line 4096 unless an earlier line fails to parse.
TEST_F(CsvReaderTest, MultiBufferCorporaAndContextPolls) {
  Rng rng(2020);
  RunContext cancelled;
  CancellationToken token;
  token.RequestCancellation();
  cancelled.set_cancellation_token(token);
  for (int round = 0; round < 24; ++round) {
    CorpusShape shape;
    shape.trajectories = 150 + rng.UniformIndex(100);
    shape.max_points = 40;
    shape.cell_noise = round % 3 == 0 ? 0.0 : 0.00002;
    shape.row_noise = round % 2 == 0 ? 0.0 : 0.0005;
    shape.crlf = round % 4 == 1;
    const std::string corpus = MakeCorpus(&rng, shape);
    ASSERT_GT(corpus.size(), 2 * kBuffer);
    Check(corpus, round % 5 == 4 ? &cancelled : nullptr,
          "round " + std::to_string(round));
    if (HasFailure()) {
      break;
    }
  }
}

// The context is polled on every 4096th line, blank and header lines
// included, before that line parses: a bad line 4095 fails to parse, a bad
// line 4096 or 4097 loses to the cancelled context.
TEST_F(CsvReaderTest, ContextPollStride) {
  RunContext cancelled;
  CancellationToken token;
  token.RequestCancellation();
  cancelled.set_cancellation_token(token);
  for (size_t bad_line : {4095, 4096, 4097}) {
    for (bool blank_before : {false, true}) {
      std::string corpus = "traj_id,object_id,parent_id,k,delta,x,y,t\n\n";
      for (size_t line = 3; line < bad_line; ++line) {
        corpus += blank_before && line + 1 == bad_line
                      ? "\n"
                      : "1,1,-1,3,100.5,0,0," + std::to_string(line) + "\n";
      }
      corpus += "1,1,-1,3\n1,1,-1,3,100.5,0,0,99999\n";
      const std::string label = "bad line " + std::to_string(bad_line) +
                                (blank_before ? " after a blank" : "");
      Check(corpus, &cancelled, label);
      const Result<Dataset> r = ReadDatasetCsv(Write(corpus), &cancelled);
      EXPECT_EQ(r.status().code(), bad_line == 4095 ? StatusCode::kParseError
                                                    : StatusCode::kCancelled)
          << label << ": " << r.status();
    }
  }
}

TEST_F(CsvReaderTest, BufferEdges) {
  const std::string header = "traj_id,object_id,parent_id,k,delta,x,y,t\n";
  auto rows = [](int64_t id, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) {
      out += std::to_string(id) + ",1,-1,3,100.5," + std::to_string(i) +
             ".25,-7.5," + std::to_string(1000 + 10 * i) + "\n";
    }
    return out;
  };
  // The first buffer ends at every byte of one row, its newline included:
  // blank lines pad the prefix so that the row starts `shift` bytes before
  // the end of the first read.
  const std::string row = "5,2,-1,4,80.125,12.5,13.5,99999\n";
  const std::string prefix = header + rows(1, 900);
  ASSERT_LT(prefix.size(), kBuffer);
  for (size_t shift = 0; shift < row.size() + 2; ++shift) {
    std::string corpus = prefix;
    corpus += std::string(kBuffer - prefix.size() - shift, '\n');
    corpus += row + rows(6, 3);
    Check(corpus, nullptr, "shift " + std::to_string(shift));
  }
  const std::string huge(kBuffer + 4321, ' ');
  const std::vector<std::pair<std::string, std::string>> cases = {
      // A cell of leading blanks longer than the buffer: strtod skips them.
      {"blank cell",
       header + "1,1,-1,3,100.5," + huge + "7,2,3\n" + rows(2, 2)},
      // A 9th cell longer than two buffers, ignored.
      {"long 9th cell",
       header + rows(1, 3) + "1,1,-1,3,100.5,0,0,9999," + huge + huge + "\n"},
      // A header-like line longer than the buffer, skipped.
      {"long header", "traj_id" + huge + "\n" + rows(1, 4)},
      // A bad cell longer than the buffer: the message carries all of it.
      {"long bad cell",
       header + rows(1, 2) + "2,1,-1,3,x" + huge + ",0,0,0,0,0\n"},
      // The long line is the last one and has no newline.
      {"long last line", header + rows(1, 2) + "2,1,-1,3,100.5,0,0,5," + huge},
      {"no trailing newline", header + rows(1, 3) + "1,1,-1,3,100.5,9,9,5000"},
      {"only a header", header},
      {"empty file", ""},
      {"blank lines", "\n\n" + header + "\n" + rows(1, 2) + "\n\n"},
      {"lone carriage return", header + rows(1, 2) + "\r\n"},
      {"embedded NUL line", header + rows(1, 2) + std::string("\0", 1) + "\n"},
  };
  for (const auto& [label, corpus] : cases) {
    Check(corpus, nullptr, label);
  }
}

// text::ParseExactDecimal takes whole exactly the edge cells marked exact.
// Whatever prefix of a token it reads, among those and every other token,
// it reads to strtod's bits for that prefix; a token it declines leaves the
// output alone.
TEST(ParseExactDecimalTest, ReadsPlainDecimalsInItsBoundsToStrtodsBits) {
  for (const EdgeCell& edge : EdgeCells()) {
    const char* end = edge.text.data() + edge.text.size();
    double v = 0.0;
    EXPECT_EQ(text::ParseExactDecimal(edge.text.data(), end, &v) == end,
              edge.exact)
        << edge.text;
  }
  const double kUntouched = -1234.5;
  for (const std::string& token : Tokens()) {
    double v = kUntouched;
    const char* stop = text::ParseExactDecimal(
        token.data(), token.data() + token.size(), &v);
    if (stop == nullptr) {
      EXPECT_EQ(Bits(v), Bits(kUntouched)) << token;
      continue;
    }
    const std::string read(token.data(), stop);
    EXPECT_EQ(Bits(v), Bits(std::strtod(read.c_str(), nullptr))) << token;
  }
}

// With both paths bad, the CSV's error wins: it is opened first.
TEST_F(CsvReaderTest, ConvertOpensTheCsvBeforeCreatingTheStore) {
  const Result<StoreConvertStats> r =
      ConvertCsvToStore((dir_ / "missing.csv").string(),
                        (dir_ / "no_such_dir" / "out.wst").string());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError) << r.status();
  EXPECT_NE(r.status().message().find("cannot open for reading"),
            std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace wcop
