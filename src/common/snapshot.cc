#include "common/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/artifact_registry.h"
#include "common/failpoint.h"

namespace wcop {

namespace {

constexpr char kMagic[8] = {'W', 'C', 'O', 'P', 'S', 'N', 'P', '1'};

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

Status PwriteAll(int fd, const std::string& name, const char* data, size_t n,
                 uint64_t offset) {
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError("write failed on " + name + ": " +
                             std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

/// Writes the envelope record of `payload` at `offset` of `fd`, header
/// first, and fsyncs it: the write path of both modes. A crash at
/// snapshot.write_payload leaves a record torn between its first and last
/// byte.
Status WriteRecordAt(int fd, const std::string& name, uint64_t offset,
                     std::string_view payload, uint32_t format_version) {
  char header[kSnapshotHeaderSize];
  std::memcpy(header, kMagic, 8);
  PutU32(header + 8, format_version);
  PutU64(header + 12, payload.size());
  PutU32(header + 20, Crc32(payload));
  WCOP_FAILPOINT("snapshot.write");
  WCOP_RETURN_IF_ERROR(
      PwriteAll(fd, name, header, kSnapshotHeaderSize, offset));
  WCOP_FAILPOINT("snapshot.write_payload");
  WCOP_RETURN_IF_ERROR(PwriteAll(fd, name, payload.data(), payload.size(),
                                 offset + kSnapshotHeaderSize));
  WCOP_FAILPOINT("snapshot.fsync");
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync failed on " + name + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteSnapshotOnce(const std::string& path, std::string_view payload,
                         uint32_t format_version) {
  const std::string tmp = path + ".tmp";
  // Registered for the duration of the write so a concurrent stale-artifact
  // sweep of this directory never reclaims the file mid-flight.
  const ScopedLiveArtifact live(tmp);
  WCOP_FAILPOINT("snapshot.open_temp");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  // The fd closes before any failure propagates.
  Status status = WriteRecordAt(fd, tmp, 0, payload, format_version);
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("close failed on " + tmp + ": " +
                             std::strerror(errno));
  }
  if (!status.ok()) {
    return status;
  }
  WCOP_FAILPOINT("snapshot.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<Snapshot> ReadSnapshotOnce(const std::string& path) {
  WCOP_FAILPOINT("snapshot.read");
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("no snapshot at " + path);
  }
  // The whole file, never more: a corrupt size field cannot become a large
  // allocation.
  std::string bytes(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
    return Status::IoError("short read on snapshot " + path);
  }
  Result<SnapshotRecord> record = ParseSnapshotRecord(bytes, 0);
  if (!record.ok()) {
    return Status::DataLoss("snapshot " + path + ": " +
                            record.status().message());
  }
  if (record->end != bytes.size()) {
    return Status::DataLoss("snapshot " + path + " has " +
                            std::to_string(bytes.size() - record->end) +
                            " bytes after its payload");
  }
  Snapshot snapshot;
  snapshot.format_version = record->format_version;
  bytes.erase(0, kSnapshotHeaderSize);
  snapshot.payload = std::move(bytes);
  return snapshot;
}

/// Slice-by-8 CRC-32 (reflected 0x04C11DB7, i.e. 0xEDB88320) over the raw
/// register `crc` (no pre- or post-inversion). t[0] is the classic
/// byte-at-a-time table; t[j][b] is t[j-1][b] advanced over one more zero
/// byte, so eight lookups fold eight input bytes per step. The tables are
/// built once, lazily.
uint32_t SliceBy8(const char* p, size_t n, uint32_t crc) {
  static const std::array<std::array<uint32_t, 256>, 8> t = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      tables[0][i] = c;
    }
    for (size_t j = 1; j < 8; ++j) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[j - 1][i];
        tables[j][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ GetU32(p);
    const uint32_t hi = GetU32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

/// x * k folded into the next 16 bytes: the low half of x times the low
/// constant, xor the high half times the high one, xor `next`.
__attribute__((target("pclmul"))) inline __m128i Fold16(__m128i x, __m128i k,
                                                      __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

__m128i Load16(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carry-less-multiply CRC-32 folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in
/// the bit-reflected form of Linux's crc32-pclmul: four 16-byte lanes fold
/// forward 64 bytes per step (k1, k2), fold into one lane (k3, k4), then
/// 128 -> 64 -> 32 bits (k4, k5) and a Barrett reduction (P', mu'). Takes
/// the raw register over the first n & ~15 of n >= 64 bytes; the caller
/// finishes the last n % 16 bytes.
__attribute__((target("pclmul"))) uint32_t FoldClmul(const char* p, size_t n,
                                                    uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold16(x1, k1k2, Load16(p));
    x2 = Fold16(x2, k1k2, Load16(p + 16));
    x3 = Fold16(x3, k1k2, Load16(p + 32));
    x4 = Fold16(x4, k1k2, Load16(p + 48));
  }
  x1 = Fold16(x1, k3k4, x2);
  x1 = Fold16(x1, k3k4, x3);
  x1 = Fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold16(x1, k3k4, Load16(p));
  }
  // 128 -> 64 bits: the low half times k4 into the high half.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits, appending 32 zero bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x1, q), 4)));
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32SliceBy8(std::string_view data, uint32_t crc) {
  return SliceBy8(data.data(), data.size(), crc ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

bool Crc32ClmulSupported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

uint32_t Crc32Clmul(std::string_view data, uint32_t crc) {
  const char* p = data.data();
  size_t n = data.size();
  crc ^= 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64) {
    crc = FoldClmul(p, n, crc);
    p += n & ~size_t{15};
    n &= 15;
  }
#endif
  return SliceBy8(p, n, crc) ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data, uint32_t crc) {
  static const bool clmul = Crc32ClmulSupported();
  return clmul ? Crc32Clmul(data, crc) : Crc32SliceBy8(data, crc);
}

Status WriteSnapshotFile(const std::string& path, std::string_view payload,
                         uint32_t format_version, const RetryPolicy* retry) {
  if (retry == nullptr) {
    return WriteSnapshotOnce(path, payload, format_version);
  }
  return RetryCall(*retry, [&]() {
    return WriteSnapshotOnce(path, payload, format_version);
  });
}

Result<Snapshot> ReadSnapshotFile(const std::string& path,
                                  const RetryPolicy* retry) {
  if (retry == nullptr) {
    return ReadSnapshotOnce(path);
  }
  return RetryResultCall<Snapshot>(
      *retry, [&]() { return ReadSnapshotOnce(path); });
}

Result<SnapshotRecord> ParseSnapshotRecord(std::string_view bytes,
                                           size_t offset) {
  if (offset > bytes.size() || bytes.size() - offset < kSnapshotHeaderSize) {
    return Status::DataLoss("record shorter than its header");
  }
  const char* header = bytes.data() + offset;
  if (std::memcmp(header, kMagic, 8) != 0) {
    return Status::DataLoss("record has a bad magic header");
  }
  // Checked against the bytes at hand before use: a corrupt size field is
  // a torn record, never a read past the buffer.
  const uint64_t payload_size = GetU64(header + 12);
  const uint64_t available = bytes.size() - offset - kSnapshotHeaderSize;
  if (payload_size > available) {
    return Status::DataLoss("record payload truncated (header claims " +
                            std::to_string(payload_size) + " bytes, " +
                            std::to_string(available) + " follow)");
  }
  SnapshotRecord record;
  record.format_version = GetU32(header + 8);
  record.payload = bytes.substr(offset + kSnapshotHeaderSize, payload_size);
  record.end = offset + kSnapshotHeaderSize + payload_size;
  const uint32_t expected_crc = GetU32(header + 20);
  const uint32_t actual_crc = Crc32(record.payload);
  if (actual_crc != expected_crc) {
    return Status::DataLoss("record CRC mismatch (stored " +
                            std::to_string(expected_crc) + ", computed " +
                            std::to_string(actual_crc) + ")");
  }
  return record;
}

Status AppendSnapshotRecord(int fd, const std::string& name, uint64_t offset,
                            std::string_view payload,
                            uint32_t format_version) {
  Status status = WriteRecordAt(fd, name, offset, payload, format_version);
  if (!status.ok() && ::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    return Status::IoError(status.message() + "; cutting " + name +
                           " back to its last record failed: " +
                           std::strerror(errno));
  }
  return status;
}

Status WriteSnapshotRotating(const std::string& path, std::string_view payload,
                             uint32_t format_version,
                             const RetryPolicy* retry) {
  // Keep the previous good snapshot before the new one replaces it. The
  // rotation itself need not be atomic: every interleaving of a crash
  // leaves at least one of {path, path.prev} a complete valid snapshot,
  // which is exactly what ReadSnapshotWithFallback recovers.
  const std::string prev = path + ".prev";
  if (::access(path.c_str(), F_OK) == 0) {
    if (std::rename(path.c_str(), prev.c_str()) != 0) {
      return Status::IoError("rotate " + path + " -> " + prev + " failed: " +
                             std::strerror(errno));
    }
  }
  return WriteSnapshotFile(path, payload, format_version, retry);
}

Result<Snapshot> ReadSnapshotWithFallback(const std::string& path,
                                          const RetryPolicy* retry) {
  Result<Snapshot> current = ReadSnapshotFile(path, retry);
  if (current.ok()) {
    return current;
  }
  Result<Snapshot> previous = ReadSnapshotFile(path + ".prev", retry);
  if (previous.ok()) {
    return previous;
  }
  // Surface the more informative failure: corruption beats absence.
  if (current.status().code() == StatusCode::kNotFound &&
      previous.status().code() != StatusCode::kNotFound) {
    return previous.status();
  }
  return current.status();
}

}  // namespace wcop
