#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>

#include "common/arg_parser.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/text_codec.h"

namespace wcop {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unsatisfiable("x").code(), StatusCode::kUnsatisfiable);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailIfNegative(int x) {
  if (x < 0) {
    return Status::InvalidArgument("negative");
  }
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  WCOP_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nothing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Status::InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  WCOP_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformReal(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, UniformIndexCoversAll) {
  Rng rng(5);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 5000; ++i) {
    ++hits[rng.UniformIndex(10)];
  }
  for (int h : hits) {
    EXPECT_GT(h, 0);
  }
}

TEST(RngTest, GaussianIsBitIdenticalToNormalDistribution) {
  // The synthetic generators draw through Gaussian, so every stddev > 0
  // must give exactly what normal_distribution(mean, stddev) gives and
  // advance the engine identically; the two engines stay in lockstep.
  Rng rng(11);
  std::mt19937_64 reference(11);
  Rng params(12);
  for (int i = 0; i < 20000; ++i) {
    const double mean = params.UniformReal(-1.0e4, 1.0e4);
    const double stddev = i % 3 == 0 ? params.UniformReal(1e-9, 1e-3)
                                     : params.UniformReal(1e-3, 5.0e3);
    std::normal_distribution<double> dist(mean, stddev);
    const double expected = dist(reference);
    const double got = rng.Gaussian(mean, stddev);
    ASSERT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
        << "draw " << i << ": " << expected << " vs " << got;
  }
  EXPECT_EQ(rng.engine()(), reference());
}

TEST(RngTest, GaussianWithZeroStddevReturnsMean) {
  Rng rng(3);
  for (double mean : {0.0, -2.5, 1.0e6}) {
    EXPECT_EQ(rng.Gaussian(mean, 0.0), mean);
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "20000"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 20000 |"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRowsAndTruncatesLongRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});                      // short: padded with empty cells
  t.AddRow({"1", "2", "3", "extra"});   // long: truncated to header width
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,,\n1,2,3\n");
}

TEST(TablePrinterTest, CsvQuotesSpecialCells) {
  TablePrinter t({"a", "b"});
  t.AddRow({"x,y", "say \"hi\""});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
}

TEST(FormatSignificantTest, Basics) {
  EXPECT_EQ(FormatSignificant(1234.5678, 4), "1235");
  EXPECT_EQ(FormatSignificant(0.00012345, 3), "0.000123");
  EXPECT_EQ(FormatSignificant(1e13, 4), "1e+13");
}

TEST(ArgParserTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--gamma=x y"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("alpha", 0), 3);
  EXPECT_TRUE(args.GetBool("flag", false));
  EXPECT_EQ(args.GetString("gamma", ""), "x y");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(ArgParserTest, FallbacksOnMissingOrMalformed) {
  const char* argv[] = {"prog", "--num=abc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("num", 5), 5);
  EXPECT_EQ(args.GetDouble("absent", 2.5), 2.5);
  EXPECT_FALSE(args.Has("absent"));
  EXPECT_TRUE(args.Has("num"));
}

TEST(ArgParserTest, BoolParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=weird"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.GetBool("a", false));
  EXPECT_FALSE(args.GetBool("b", true));
  EXPECT_TRUE(args.GetBool("c", false));
  EXPECT_TRUE(args.GetBool("d", true));  // unparsable -> fallback
}

TEST(TextCodecTest, ParseIntTakesWholeInRangeTokensOnly) {
  uint64_t u = 7;
  EXPECT_TRUE(text::ParseInt("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  int k = 7;
  EXPECT_TRUE(text::ParseInt("-2147483648", &k));
  EXPECT_EQ(k, INT32_MIN);
  // Rejected tokens leave the field as it was, including a valid prefix.
  u = 7;
  k = 7;
  for (const char* tok : {"12x", "-3", "+3", "18446744073709551616", ""}) {
    EXPECT_FALSE(text::ParseInt(tok, &u)) << tok;
    EXPECT_EQ(u, 7u) << tok;
  }
  for (const char* tok : {"12x", "+3", "4294967298", "2147483648", " 1"}) {
    EXPECT_FALSE(text::ParseInt(tok, &k)) << tok;
    EXPECT_EQ(k, 7) << tok;
  }
}

TEST(TextCodecTest, CountsAndBlobsStayInsideThePayload) {
  text::TokenScanner scan("2 5 a b\nc 9", "test");
  Result<size_t> count = scan.NextCount();
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 2u);
  Result<std::string_view> blob = scan.NextBlob();  // "5 a b\nc"
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_EQ(*blob, "a b\nc");
  // Two unread bytes (" 9") cannot hold nine elements.
  EXPECT_EQ(scan.NextCount().status().code(), StatusCode::kDataLoss);

  // A blob needs exactly one separator byte and all of its bytes.
  for (const char* payload : {"3 ab", "3", "2xab", "18446744073709551615 a"}) {
    text::TokenScanner bad(payload, "test");
    EXPECT_EQ(bad.NextBlob().status().code(), StatusCode::kDataLoss)
        << payload;
  }
  text::TokenScanner empty("0  next", "test");
  blob = empty.NextBlob();
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_TRUE(blob->empty());
  EXPECT_TRUE(empty.Expect("next").ok());
}

}  // namespace
}  // namespace wcop
