#include "pipeline/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/log.h"
#include "common/snapshot.h"
#include "common/text_codec.h"

namespace wcop {
namespace pipeline {

namespace {

constexpr std::string_view kMarker = "wcop-window-manifest";

}  // namespace

std::string EncodeWindowRecord(const WindowRecord& record) {
  using text::AppendF64;
  using text::AppendI64;
  using text::AppendU64;
  const WindowManifest& m = record.manifest;
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
  out.append("\ncarry ");
  AppendU64(&out, record.carry.size());
  out.push_back('\n');
  for (const Trajectory& t : record.carry) {
    store::AppendTrajectoryRecord(&out, t);
  }
  return out;
}

Result<WindowRecord> DecodeWindowRecord(std::string_view payload) {
  text::TokenScanner scan(payload, "window manifest");
  WCOP_ASSIGN_OR_RETURN(std::string_view marker, scan.Next());
  if (marker != kMarker) {
    return Status::DataLoss("window manifest: bad marker");
  }
  WindowRecord record;
  WindowManifest& m = record.manifest;
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
  WCOP_ASSIGN_OR_RETURN(std::string_view carry_keyword, scan.Next());
  if (carry_keyword != "carry") {
    return Status::DataLoss("window manifest: missing carry section");
  }
  WCOP_ASSIGN_OR_RETURN(uint64_t carried, scan.NextU64());
  if (carried != m.carried_out) {
    return Status::DataLoss("window manifest: carry count " +
                            std::to_string(carried) + " but carried_out " +
                            std::to_string(m.carried_out));
  }
  // The binary records begin after the " \n" that ends the count's line; a
  // record's first byte may itself be whitespace, so the separator is
  // matched exactly, never skipped.
  size_t pos = scan.pos();
  if (payload.substr(pos, 2) != " \n") {
    return Status::DataLoss("window manifest: malformed carry header");
  }
  pos += 2;
  // Each record takes at least its 48-byte header: a corrupt count cannot
  // reserve more than the payload could hold.
  if (carried > (payload.size() - pos) / 48) {
    return Status::DataLoss("window manifest: implausible carry count");
  }
  record.carry.reserve(carried);
  for (uint64_t i = 0; i < carried; ++i) {
    WCOP_ASSIGN_OR_RETURN(Trajectory t,
                          store::ParseTrajectoryRecord(payload, &pos));
    record.carry.push_back(std::move(t));
  }
  if (pos != payload.size()) {
    return Status::DataLoss("window manifest: trailing bytes");
  }
  return record;
}

Status WindowJournal::Read(std::vector<WindowRecord>* records) {
  records->clear();
  ends_.clear();
  file_size_ = 0;
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::OK();  // no journal yet: nothing committed
  }
  std::string bytes(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
    return Status::IoError("short read on window journal " + path_);
  }
  file_size_ = bytes.size();
  size_t pos = 0;
  Status tail;
  while (pos < bytes.size()) {
    Result<SnapshotRecord> envelope = ParseSnapshotRecord(bytes, pos);
    if (!envelope.ok()) {
      tail = envelope.status();
      break;
    }
    if (envelope->format_version != kWindowManifestVersion) {
      tail = Status::DataLoss("unsupported version " +
                              std::to_string(envelope->format_version));
      break;
    }
    Result<WindowRecord> record = DecodeWindowRecord(envelope->payload);
    if (!record.ok()) {
      tail = record.status();
      break;
    }
    if (record->manifest.window_index != records->size()) {
      tail = Status::DataLoss(
          "record " + std::to_string(records->size()) + " names window " +
          std::to_string(record->manifest.window_index));
      break;
    }
    records->push_back(*std::move(record));
    ends_.push_back(envelope->end);
    pos = envelope->end;
  }
  if (!tail.ok()) {
    log::Info("pipeline: window journal ends in a torn or invalid record",
              {{"records", records->size()},
               {"bytes_after", bytes.size() - pos},
               {"reason", tail.ToString()}});
  }
  return Status::OK();
}

WindowJournal::~WindowJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status WindowJournal::Append(const WindowRecord& record) {
  const uint64_t index = record.manifest.window_index;
  if (index > ends_.size()) {
    return Status::Internal("window journal: record for window " +
                            std::to_string(index) + " after only " +
                            std::to_string(ends_.size()) + " records");
  }
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0) {
      return Status::IoError("cannot open window journal " + path_ + ": " +
                             std::strerror(errno));
    }
  }
  const uint64_t start = index == 0 ? 0 : ends_[index - 1];
  ends_.resize(index);
  if (file_size_ != start) {
    if (::ftruncate(fd_, static_cast<off_t>(start)) != 0) {
      file_size_ = kUnknownSize;
      return Status::IoError("cannot cut window journal " + path_ + ": " +
                             std::strerror(errno));
    }
    file_size_ = start;
  }
  const std::string payload = EncodeWindowRecord(record);
  Status appended =
      AppendSnapshotRecord(fd_, path_, start, payload, kWindowManifestVersion);
  if (!appended.ok()) {
    file_size_ = kUnknownSize;
    return appended;
  }
  file_size_ = start + kSnapshotHeaderSize + payload.size();
  ends_.push_back(file_size_);
  return Status::OK();
}

}  // namespace pipeline
}  // namespace wcop
