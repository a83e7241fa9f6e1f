#ifndef WCOP_COMMON_TEXT_CODEC_H_
#define WCOP_COMMON_TEXT_CODEC_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>

#include "common/result.h"

namespace wcop {
namespace text {

/// The text convention of the shard checkpoint and the window journal
/// record: each field is one token followed by one space; integers print in
/// decimal, doubles at %.17g, which strtod reads back bit-exactly
/// (subnormals, -0 and ±inf included).
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);
void AppendF64(std::string* out, double v);

/// Parses all of `tok` as a decimal `Int`. An unsigned field rejects a
/// sign (strtoull wrapped "-1" to 2^64 - 1), a signed one rejects '+' (the
/// encoders write neither), and a value that does not fit `Int` is
/// rejected, not truncated. `*out` is unchanged on failure.
template <typename Int>
bool ParseInt(std::string_view tok, Int* out) {
  const char* end = tok.data() + tok.size();
  Int v = 0;
  const std::from_chars_result r = std::from_chars(tok.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) {
    return false;
  }
  *out = v;
  return true;
}

/// Whitespace tokenizer over such text. Every failure is kDataLoss with a
/// message that starts with `what` (e.g. "shard checkpoint"), so a damaged
/// payload reads as corrupt and its owner falls back to recompute.
class TokenScanner {
 public:
  TokenScanner(std::string_view text, std::string_view what)
      : text_(text), what_(what) {}

  /// The next whitespace-delimited token; never empty.
  Result<std::string_view> Next();

  /// The next token as an integer, under ParseInt's rules.
  template <typename Int>
  Result<Int> NextInt() {
    WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
    Int v = 0;
    if (!ParseInt(tok, &v)) {
      return Error("bad integer");
    }
    return v;
  }

  Result<uint64_t> NextU64() { return NextInt<uint64_t>(); }
  Result<int64_t> NextI64() { return NextInt<int64_t>(); }

  /// The next token as an element count: every element takes at least one
  /// byte, so a count above the bytes still unread is corrupt. Rejecting it
  /// here keeps a torn or hostile count away from vector::reserve.
  Result<size_t> NextCount();

  /// A length-prefixed blob, "<len> <bytes>": the length token, exactly one
  /// whitespace byte, then `len` raw bytes, whitespace included.
  Result<std::string_view> NextBlob();

  /// Any token strtod consumes whole. errno is not consulted: glibc sets
  /// ERANGE for subnormals that round-trip exactly.
  Result<double> NextF64();

  /// The next token must be `want`.
  Status Expect(std::string_view want);

  /// Offset just past the last token returned.
  size_t pos() const { return pos_; }

 private:
  Status Error(std::string_view message) const;

  std::string_view text_;
  std::string_view what_;
  size_t pos_ = 0;
};

/// Reads the plain decimal `[-]digits[.digits]` at the start of [p, end)
/// on Clinger's exact fast path ("How to Read Floating Point Numbers
/// Accurately", PLDI 1990). Its digits, read as one integer w with f of them
/// after the point, give w / 10^f. It takes at most 19 digits, leading zeros
/// included, so w < 10^19 does not wrap and f <= 18 makes 10^f an exact
/// double; with w <= 2^53, w is exact too, and one correctly rounded
/// division yields strtod's value bit for bit. Returns where the decimal
/// ends, which a caller checks is where its token ends; or nullptr, with
/// `*out` unchanged, when [p, end) does not start with such a decimal and
/// must go to strtod.
inline const char* ParseExactDecimal(const char* p, const char* end,
                                     double* out) {
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,
                                      1e5,  1e6,  1e7,  1e8,  1e9,
                                      1e10, 1e11, 1e12, 1e13, 1e14,
                                      1e15, 1e16, 1e17, 1e18};
  const bool negative = p != end && *p == '-';
  p += negative;
  uint64_t w = 0;
  const auto read_digits = [&](const char* q) {
    for (; q != end && *q >= '0' && *q <= '9'; ++q) {
      w = w * 10 + static_cast<uint64_t>(*q - '0');
    }
    return q;
  };
  const char* q = read_digits(p);
  const size_t whole = static_cast<size_t>(q - p);
  size_t fraction = 0;
  if (whole != 0 && q != end && *q == '.') {
    const char* const digits = q + 1;
    q = read_digits(digits);
    fraction = static_cast<size_t>(q - digits);
    if (fraction == 0) {
      return nullptr;
    }
  }
  if (whole == 0 || whole + fraction > std::size(kPow10) ||
      w > (uint64_t{1} << 53)) {
    return nullptr;
  }
  const double v = static_cast<double>(w) / kPow10[fraction];
  *out = negative ? -v : v;
  return q;
}

}  // namespace text
}  // namespace wcop

#endif  // WCOP_COMMON_TEXT_CODEC_H_
