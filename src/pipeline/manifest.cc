#include "pipeline/manifest.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "common/snapshot.h"

namespace wcop {
namespace pipeline {

namespace {

// Same text conventions as the shard checkpoint codec: space-separated
// tokens, %.17g doubles (strtod round-trips them exactly).

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

class ManifestScanner {
 public:
  explicit ManifestScanner(std::string_view text) : text_(text) {}

  Result<std::string_view> Next() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Status::DataLoss("window manifest: truncated payload");
    }
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) == 0) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  /// An unsigned field rejects a sign (strtoull wrapped "-1" to 2^64 - 1),
  /// a signed one rejects '+': the encoder writes neither.
  template <typename Int>
  Result<Int> NextInt() {
    WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
    Int v = 0;
    const char* end = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end) {
      return Status::DataLoss("window manifest: bad integer");
    }
    return v;
  }

  Result<uint64_t> NextU64() { return NextInt<uint64_t>(); }
  Result<int64_t> NextI64() { return NextInt<int64_t>(); }

  Result<double> NextF64() {
    WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
    char buf[64];
    if (tok.size() >= sizeof(buf)) {
      return Status::DataLoss("window manifest: oversized token");
    }
    std::memcpy(buf, tok.data(), tok.size());
    buf[tok.size()] = '\0';
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(buf, &end);
    if (errno != 0 || end != buf + tok.size()) {
      return Status::DataLoss("window manifest: bad double");
    }
    return v;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

constexpr std::string_view kMarker = "wcop-window-manifest";

}  // namespace

std::string EncodeWindowManifest(const WindowManifest& m) {
  std::string out;
  out.append(kMarker);
  out.push_back(' ');
  AppendU64(&out, m.config_fingerprint);
  AppendU64(&out, m.window_index);
  AppendF64(&out, m.window_start);
  AppendF64(&out, m.window_end);
  AppendU64(&out, m.input_fragments);
  AppendU64(&out, m.published_fragments);
  AppendU64(&out, m.suppressed_delta);
  AppendU64(&out, m.carried_in);
  AppendU64(&out, m.carried_out);
  AppendU64(&out, m.clusters);
  AppendF64(&out, m.ttd);
  AppendU64(&out, m.skipped ? 1 : 0);
  AppendU64(&out, m.degraded ? 1 : 0);
  AppendI64(&out, m.next_fragment_id);
  AppendU64(&out, m.input_crc);
  AppendU64(&out, m.input_size);
  AppendU64(&out, m.output_crc);
  AppendU64(&out, m.output_size);
  AppendU64(&out, m.carry_crc);
  AppendU64(&out, m.carry_size);
  out.push_back('\n');
  return out;
}

Result<WindowManifest> DecodeWindowManifest(std::string_view payload) {
  ManifestScanner scan(payload);
  WCOP_ASSIGN_OR_RETURN(std::string_view marker, scan.Next());
  if (marker != kMarker) {
    return Status::DataLoss("window manifest: bad marker");
  }
  WindowManifest m;
  WCOP_ASSIGN_OR_RETURN(m.config_fingerprint, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.window_index, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.window_start, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(m.window_end, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(m.input_fragments, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.published_fragments, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.suppressed_delta, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.carried_in, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.carried_out, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.clusters, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.ttd, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(uint64_t skipped, scan.NextU64());
  m.skipped = skipped != 0;
  WCOP_ASSIGN_OR_RETURN(uint64_t degraded, scan.NextU64());
  m.degraded = degraded != 0;
  WCOP_ASSIGN_OR_RETURN(m.next_fragment_id, scan.NextI64());
  WCOP_ASSIGN_OR_RETURN(m.input_crc, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.input_size, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.output_crc, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.output_size, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.carry_crc, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(m.carry_size, scan.NextU64());
  if (scan.Next().ok()) {
    return Status::DataLoss("window manifest: trailing bytes");
  }
  return m;
}

Status WriteWindowManifest(const std::string& path,
                           const WindowManifest& manifest,
                           const RetryPolicy* retry) {
  return WriteSnapshotFile(path, EncodeWindowManifest(manifest),
                           kWindowManifestVersion, retry);
}

Result<WindowManifest> ReadWindowManifest(const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(Snapshot snapshot, ReadSnapshotFile(path));
  if (snapshot.format_version != kWindowManifestVersion) {
    return Status::DataLoss("window manifest " + path +
                            " has unsupported version " +
                            std::to_string(snapshot.format_version));
  }
  return DecodeWindowManifest(snapshot.payload);
}

}  // namespace pipeline
}  // namespace wcop
