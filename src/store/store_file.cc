#include "store/store_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/snapshot.h"
#include "geo/bounding_box.h"

namespace wcop {
namespace store {

namespace {

constexpr char kFileMagic[8] = {'W', 'C', 'O', 'P', 'S', 'T', 'R', '1'};
constexpr char kIndexMagic[8] = {'W', 'C', 'O', 'P', 'S', 'I', 'D', 'X'};
constexpr char kEndMagic[8] = {'W', 'C', 'O', 'P', 'S', 'E', 'N', 'D'};
constexpr size_t kHeaderSize = 8 + 4 + 4;
constexpr size_t kBlockHeaderSize = 4 + 4;
constexpr size_t kEntrySize = 13 * 8;  // 13 8-byte fields per index entry
constexpr size_t kIndexFrameSize = 8 + 8 + 4;  // marker, count, CRC
constexpr size_t kFooterSize = 8 + 8;
constexpr size_t kRecordHeaderSize = 6 * 8;  // id .. n, see the header
constexpr size_t kPointSize = 3 * 8;        // x, y, t

/// Size of the block holding a trajectory of `num_points` points; the
/// caller keeps num_points below 2^64 / kPointSize.
uint64_t BlockSize(uint64_t num_points) {
  return kBlockHeaderSize + kRecordHeaderSize + num_points * kPointSize;
}

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t F64Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

void PutF64(char* out, double v) { PutU64(out, F64Bits(v)); }

uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

double GetF64(const char* in) {
  const uint64_t bits = GetU64(in);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

/// Positional read of exactly `n` bytes at `offset`: no shared file
/// position, so concurrent calls on one descriptor never interfere.
Status ReadAt(int fd, uint64_t offset, char* out, size_t n,
              const std::string& path) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError("read failed on " + path + ": " +
                             std::strerror(errno));
    }
    if (got == 0) {
      return Status::DataLoss("store " + path + ": short read (truncated?)");
    }
    out += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

StoreEntry MakeEntry(const Trajectory& t, uint64_t offset,
                     uint64_t block_size) {
  StoreEntry e;
  e.id = t.id();
  e.offset = offset;
  e.block_size = block_size;
  e.num_points = t.size();
  e.k = t.requirement().k;
  e.delta = t.requirement().delta;
  const BoundingBox box = t.Bounds();
  e.min_x = box.min_x();
  e.min_y = box.min_y();
  e.max_x = box.max_x();
  e.max_y = box.max_y();
  e.t_min = t.StartTime();
  e.t_max = t.EndTime();
  return e;
}

void EncodeEntry(char* out, const StoreEntry& e) {
  PutU64(out + 0, static_cast<uint64_t>(e.id));
  PutU64(out + 8, e.offset);
  PutU64(out + 16, e.block_size);
  PutU64(out + 24, e.num_points);
  PutU64(out + 32, static_cast<uint64_t>(e.k));
  PutF64(out + 40, e.delta);
  PutF64(out + 48, e.min_x);
  PutF64(out + 56, e.min_y);
  PutF64(out + 64, e.max_x);
  PutF64(out + 72, e.max_y);
  PutF64(out + 80, e.t_min);
  PutF64(out + 88, e.t_max);
  PutU64(out + 96, 0);  // reserved
}

StoreEntry DecodeEntry(const char* in) {
  StoreEntry e;
  e.id = static_cast<int64_t>(GetU64(in + 0));
  e.offset = GetU64(in + 8);
  e.block_size = GetU64(in + 16);
  e.num_points = GetU64(in + 24);
  e.k = static_cast<int64_t>(GetU64(in + 32));
  e.delta = GetF64(in + 40);
  e.min_x = GetF64(in + 48);
  e.min_y = GetF64(in + 56);
  e.max_x = GetF64(in + 64);
  e.max_y = GetF64(in + 72);
  e.t_min = GetF64(in + 80);
  e.t_max = GetF64(in + 88);
  return e;
}

}  // namespace

void AppendTrajectoryRecord(std::string* out, const Trajectory& t) {
  const size_t start = out->size();
  out->resize(start + kRecordHeaderSize + t.size() * kPointSize);
  char* p = out->data() + start;
  PutU64(p, static_cast<uint64_t>(t.id()));
  PutU64(p + 8, static_cast<uint64_t>(t.object_id()));
  PutU64(p + 16, static_cast<uint64_t>(t.parent_id()));
  PutU64(p + 24, static_cast<uint64_t>(int64_t{t.requirement().k}));
  PutF64(p + 32, t.requirement().delta);
  PutU64(p + 40, t.size());
  p += kRecordHeaderSize;
  for (const Point& point : t.points()) {
    PutF64(p, point.x);
    PutF64(p + 8, point.y);
    PutF64(p + 16, point.t);
    p += kPointSize;
  }
}

Result<Trajectory> ParseTrajectoryRecord(std::string_view payload,
                                         size_t* pos) {
  if (*pos > payload.size() ||
      payload.size() - *pos < kRecordHeaderSize) {
    return Status::DataLoss("store record: truncated header");
  }
  const char* in = payload.data() + *pos;
  const uint64_t num_points = GetU64(in + 40);
  if (num_points >
      (payload.size() - *pos - kRecordHeaderSize) / kPointSize) {
    return Status::DataLoss("store record: implausible point count");
  }
  const auto k = static_cast<int64_t>(GetU64(in + 24));
  if (k < std::numeric_limits<int>::min() ||
      k > std::numeric_limits<int>::max()) {
    return Status::DataLoss("store record: k out of range");
  }
  std::vector<Point> points;
  points.reserve(num_points);
  for (const char* p = in + kRecordHeaderSize; points.size() < num_points;
       p += kPointSize) {
    points.emplace_back(GetF64(p), GetF64(p + 8), GetF64(p + 16));
  }
  Trajectory t(static_cast<int64_t>(GetU64(in)), std::move(points),
               Requirement{static_cast<int>(k), GetF64(in + 32)});
  t.set_object_id(static_cast<int64_t>(GetU64(in + 8)));
  t.set_parent_id(static_cast<int64_t>(GetU64(in + 16)));
  // The writer validated every trajectory it wrote, so a record that fails
  // here is corrupt, not merely unusual.
  if (const Status valid = t.Validate(); !valid.ok()) {
    return Status::DataLoss("store record: " + valid.message());
  }
  *pos += kRecordHeaderSize + num_points * kPointSize;
  return t;
}

Result<TrajectoryStoreWriter> TrajectoryStoreWriter::Create(
    const std::string& path) {
  TrajectoryStoreWriter w;
  if (!path.empty()) {
    WCOP_FAILPOINT("store.create");
    w.path_ = path;
    w.tmp_path_ = path + ".tmp";
    w.live_tmp_ = ScopedLiveArtifact(w.tmp_path_);
    w.file_.reset(std::fopen(w.tmp_path_.c_str(), "wb"));
    if (w.file_ == nullptr) {
      return Status::IoError("cannot open " + w.tmp_path_ + ": " +
                             std::strerror(errno));
    }
  }
  char header[kHeaderSize];
  std::memcpy(header, kFileMagic, 8);
  PutU32(header + 8, kStoreFormatVersion);
  PutU32(header + 12, 0);
  WCOP_RETURN_IF_ERROR(w.Emit(header, kHeaderSize));
  return w;
}

TrajectoryStoreWriter::~TrajectoryStoreWriter() {
  if (!finished_ && file_ != nullptr) {
    file_.reset();
    std::remove(tmp_path_.c_str());
  }
}

Status TrajectoryStoreWriter::Emit(const char* data, size_t n) {
  crc_ = Crc32(std::string_view(data, n), crc_);
  size_ += n;
  if (file_ != nullptr && n != 0 && std::fwrite(data, 1, n, file_.get()) != n) {
    return Status::IoError("write failed on " + tmp_path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status TrajectoryStoreWriter::Append(const Trajectory& t) {
  if (finished_) {
    return Status::FailedPrecondition("store writer is closed");
  }
  WCOP_RETURN_IF_ERROR(t.Validate());
  if (file_ != nullptr) {
    WCOP_FAILPOINT("store.write_block");
  }
  std::string payload;
  AppendTrajectoryRecord(&payload, t);
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("trajectory record exceeds block limit");
  }
  char block_header[kBlockHeaderSize];
  PutU32(block_header, static_cast<uint32_t>(payload.size()));
  PutU32(block_header + 4, Crc32(payload));
  const uint64_t offset = size_;
  WCOP_RETURN_IF_ERROR(Emit(block_header, kBlockHeaderSize));
  WCOP_RETURN_IF_ERROR(Emit(payload.data(), payload.size()));
  index_.push_back(MakeEntry(t, offset, kBlockHeaderSize + payload.size()));
  return Status::OK();
}

Status TrajectoryStoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("store writer is closed");
  }
  const bool file_backed = file_ != nullptr;
  Status status = [&]() -> Status {
    if (file_backed) {
      WCOP_FAILPOINT("store.write_index");
    }
    std::string section;
    section.reserve(8 + 8 + index_.size() * kEntrySize + 4);
    section.append(kIndexMagic, 8);
    char buf[kEntrySize];
    PutU64(buf, index_.size());
    section.append(buf, 8);
    for (const StoreEntry& e : index_) {
      EncodeEntry(buf, e);
      section.append(buf, kEntrySize);
    }
    // CRC over the count and the entries (everything after the marker).
    const uint32_t crc =
        Crc32(std::string_view(section).substr(8));
    PutU32(buf, crc);
    section.append(buf, 4);
    char footer[kFooterSize];
    PutU64(footer, size_);
    std::memcpy(footer + 8, kEndMagic, 8);
    section.append(footer, kFooterSize);
    WCOP_RETURN_IF_ERROR(Emit(section.data(), section.size()));
    if (!file_backed) {
      return Status::OK();
    }
    if (std::fflush(file_.get()) != 0) {
      return Status::IoError("flush failed on " + tmp_path_ + ": " +
                             std::strerror(errno));
    }
    WCOP_FAILPOINT("store.fsync");
    if (::fsync(fileno(file_.get())) != 0) {
      return Status::IoError("fsync failed on " + tmp_path_ + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }();
  finished_ = true;
  if (!file_backed) {
    return status;
  }
  file_.reset();
  if (status.ok()) {
    // Fired by hand (not WCOP_FAILPOINT, which returns): an injected rename
    // failure must still fall through to the temp-file cleanup below.
    if (FailpointRegistry::Instance().active()) {
      status = FailpointRegistry::Instance().Fire("store.rename");
    }
    if (status.ok() &&
        std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      status = Status::IoError("rename " + tmp_path_ + " -> " + path_ +
                               " failed: " + std::strerror(errno));
    }
  }
  if (!status.ok()) {
    std::remove(tmp_path_.c_str());
  }
  live_tmp_.Release();
  return status;
}

TrajectoryStoreReader::Descriptor::~Descriptor() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<TrajectoryStoreReader> TrajectoryStoreReader::Open(
    const std::string& path) {
  WCOP_FAILPOINT("store.open");
  TrajectoryStoreReader r;
  r.path_ = path;
  r.fd_ = Descriptor(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  const int fd = r.fd_.get();
  if (fd < 0) {
    return Status::NotFound("cannot open store " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("fstat failed on " + path + ": " +
                           std::strerror(errno));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kHeaderSize + kIndexFrameSize + kFooterSize) {
    return Status::DataLoss("store " + path + ": file too small");
  }
  char header[kHeaderSize];
  WCOP_RETURN_IF_ERROR(ReadAt(fd, 0, header, kHeaderSize, path));
  if (std::memcmp(header, kFileMagic, 8) != 0) {
    return Status::DataLoss("store " + path + ": bad magic");
  }
  const uint32_t version = GetU32(header + 8);
  if (version != kStoreFormatVersion) {
    return Status::FailedPrecondition("store " + path +
                                      ": unsupported version " +
                                      std::to_string(version));
  }
  char footer[kFooterSize];
  WCOP_RETURN_IF_ERROR(
      ReadAt(fd, file_size - kFooterSize, footer, kFooterSize, path));
  if (std::memcmp(footer + 8, kEndMagic, 8) != 0) {
    return Status::DataLoss("store " + path +
                            ": missing end marker (truncated?)");
  }
  // Every bound below is written as a subtraction from a value already
  // known to be larger, so a crafted offset or size cannot wrap past it.
  const uint64_t index_offset = GetU64(footer);
  if (index_offset < kHeaderSize ||
      index_offset > file_size - kFooterSize - kIndexFrameSize) {
    return Status::DataLoss("store " + path + ": index offset out of range");
  }
  WCOP_FAILPOINT("store.read_index");
  char index_header[16];
  WCOP_RETURN_IF_ERROR(ReadAt(fd, index_offset, index_header, 16, path));
  if (std::memcmp(index_header, kIndexMagic, 8) != 0) {
    return Status::DataLoss("store " + path + ": bad index marker");
  }
  const uint64_t count = GetU64(index_header + 8);
  if (count > file_size / kEntrySize) {
    return Status::DataLoss("store " + path + ": implausible index count");
  }
  const uint64_t index_bytes = 8 + count * kEntrySize;
  if (index_offset + 8 + index_bytes + 4 + kFooterSize != file_size) {
    return Status::DataLoss("store " + path + ": index size mismatch");
  }
  std::string section(index_bytes + 4, '\0');
  WCOP_RETURN_IF_ERROR(
      ReadAt(fd, index_offset + 8, section.data(), section.size(), path));
  if (Crc32(std::string_view(section).substr(0, index_bytes)) !=
      GetU32(section.data() + index_bytes)) {
    return Status::DataLoss("store " + path + ": index CRC mismatch");
  }
  r.index_.reserve(count);
  r.by_id_.reserve(count);
  uint64_t expected_offset = kHeaderSize;
  for (uint64_t i = 0; i < count; ++i) {
    StoreEntry e = DecodeEntry(section.data() + 8 + i * kEntrySize);
    // A block is exactly its framing, record header and points, so
    // num_points (and with it total_points()) is bounded by the file size.
    if (e.offset != expected_offset ||
        e.num_points > (index_offset - e.offset) / kPointSize ||
        e.block_size != BlockSize(e.num_points) ||
        e.block_size > index_offset - e.offset) {
      return Status::DataLoss("store " + path + ": corrupt index entry " +
                              std::to_string(i));
    }
    expected_offset = e.offset + e.block_size;
    r.total_points_ += e.num_points;
    if (!r.by_id_.emplace(e.id, i).second) {
      return Status::DataLoss("store " + path + ": duplicate id " +
                              std::to_string(e.id));
    }
    r.index_.push_back(e);
  }
  if (expected_offset != index_offset) {
    return Status::DataLoss("store " + path + ": blocks do not cover file");
  }
  return r;
}

Result<Trajectory> TrajectoryStoreReader::Read(size_t i) const {
  if (i >= index_.size()) {
    return Status::InvalidArgument("store read out of range");
  }
  WCOP_FAILPOINT("store.read_block");
  const StoreEntry& e = index_[i];
  std::string block(e.block_size, '\0');
  WCOP_RETURN_IF_ERROR(
      ReadAt(fd_.get(), e.offset, block.data(), block.size(), path_));
  const uint32_t payload_size = GetU32(block.data());
  const uint32_t crc = GetU32(block.data() + 4);
  if (payload_size != e.block_size - kBlockHeaderSize) {
    return Status::DataLoss("store " + path_ + ": block " +
                            std::to_string(i) + " size mismatch");
  }
  const std::string_view payload =
      std::string_view(block).substr(kBlockHeaderSize);
  if (Crc32(payload) != crc) {
    return Status::DataLoss("store " + path_ + ": block " +
                            std::to_string(i) + " CRC mismatch");
  }
  size_t pos = 0;
  WCOP_ASSIGN_OR_RETURN(Trajectory t, ParseTrajectoryRecord(payload, &pos));
  // The partitioner plans from the index row alone, so the block must agree
  // with it on everything both carry: id, size and the requirement, delta
  // compared bit for bit.
  if (t.id() != e.id || t.size() != e.num_points ||
      t.requirement().k != e.k ||
      F64Bits(t.requirement().delta) != F64Bits(e.delta)) {
    return Status::DataLoss("store " + path_ + ": block " +
                            std::to_string(i) + " does not match index");
  }
  return t;
}

Result<Trajectory> TrajectoryStoreReader::ReadById(int64_t id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("store " + path_ + ": no trajectory " +
                            std::to_string(id));
  }
  return Read(it->second);
}

Result<Dataset> TrajectoryStoreReader::ReadAll() const {
  Dataset dataset;
  dataset.mutable_trajectories().reserve(index_.size());
  for (size_t i = 0; i < index_.size(); ++i) {
    WCOP_ASSIGN_OR_RETURN(Trajectory t, Read(i));
    dataset.Add(std::move(t));
  }
  return dataset;
}

Status WriteDatasetStore(const Dataset& dataset, const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(TrajectoryStoreWriter writer,
                        TrajectoryStoreWriter::Create(path));
  for (const Trajectory& t : dataset.trajectories()) {
    WCOP_RETURN_IF_ERROR(writer.Append(t));
  }
  return writer.Finish();
}

Result<FileDigest> DigestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no file at " + path);
  }
  std::vector<char> chunk(64 * 1024);
  uint32_t crc = 0;
  uint64_t size = 0;
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto n = static_cast<size_t>(in.gcount());
    crc = Crc32(std::string_view(chunk.data(), n), crc);
    size += n;
  }
  if (in.bad()) {
    return Status::IoError("read failed on " + path);
  }
  return FileDigest{crc, size};
}

Result<size_t> SweepStaleArtifacts(const std::string& dir,
                                   telemetry::Telemetry* telemetry) {
  WCOP_FAILPOINT("janitor.sweep");
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) {
      return size_t{0};  // nothing there yet, nothing to sweep
    }
    return Status::IoError("janitor: cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  size_t removed = 0;
  size_t live_skipped = 0;
  Status first_error;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string_view name(entry->d_name);
    constexpr std::string_view kSuffix = ".tmp";
    if (name.size() <= kSuffix.size() ||
        name.substr(name.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    const std::string path = dir + "/" + std::string(name);
    if (IsLiveArtifact(path)) {
      // An in-flight writer in this process owns the file; it is not an
      // orphan, and deleting it would tear a live publish.
      ++live_skipped;
      log::Debug("janitor: skipped live artifact", {{"path", path}});
      continue;
    }
    if (std::remove(path.c_str()) != 0) {
      if (errno == ENOENT) {
        // Lost the race with a concurrent atomic publish: the temp was
        // renamed (or cleaned by its owner) between readdir and here.
        // The file became someone's committed output — not an orphan,
        // not an error.
        continue;
      }
      if (first_error.ok()) {
        first_error = Status::IoError("janitor: cannot remove " + path +
                                      ": " + std::strerror(errno));
      }
      continue;
    }
    ++removed;
    log::Info("janitor: removed stale artifact", {{"path", path}});
  }
  ::closedir(handle);
  if (!first_error.ok()) {
    return first_error;
  }
  if (telemetry != nullptr && removed > 0) {
    telemetry->metrics().GetCounter("janitor.stale_removed")->Add(removed);
  }
  if (telemetry != nullptr && live_skipped > 0) {
    telemetry->metrics().GetCounter("janitor.live_skipped")->Add(live_skipped);
  }
  return removed;
}

}  // namespace store
}  // namespace wcop
