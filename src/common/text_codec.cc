#include "common/text_codec.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wcop {
namespace text {

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
  out->push_back(' ');
}

void AppendI64(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
  out->push_back(' ');
}

void AppendF64(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
  out->push_back(' ');
}

Result<std::string_view> TokenScanner::Next() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
    ++pos_;
  }
  if (pos_ >= text_.size()) {
    return Error("truncated payload");
  }
  const size_t start = pos_;
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])) == 0) {
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

Result<double> TokenScanner::NextF64() {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  char buf[64];
  if (tok.size() >= sizeof(buf)) {
    return Error("oversized token");
  }
  std::memcpy(buf, tok.data(), tok.size());
  buf[tok.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + tok.size()) {
    return Error("bad double");
  }
  return v;
}

Result<size_t> TokenScanner::NextCount() {
  WCOP_ASSIGN_OR_RETURN(const size_t count, NextInt<size_t>());
  if (count > text_.size() - pos_) {
    return Error("count exceeds the payload");
  }
  return count;
}

Result<std::string_view> TokenScanner::NextBlob() {
  WCOP_ASSIGN_OR_RETURN(const uint64_t len, NextU64());
  if (pos_ >= text_.size() ||
      std::isspace(static_cast<unsigned char>(text_[pos_])) == 0 ||
      text_.size() - pos_ - 1 < len) {
    return Error("bad blob");
  }
  const std::string_view blob = text_.substr(pos_ + 1, len);
  pos_ += 1 + len;
  return blob;
}

Status TokenScanner::Expect(std::string_view want) {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  if (tok != want) {
    return Error("expected '" + std::string(want) + "'");
  }
  return Status::OK();
}

Status TokenScanner::Error(std::string_view message) const {
  return Status::DataLoss(std::string(what_) + ": " + std::string(message));
}

}  // namespace text
}  // namespace wcop
