#ifndef WCOP_TESTS_DIGEST_LIST_H_
#define WCOP_TESTS_DIGEST_LIST_H_

// The checked-in lists of published-file digests that the digest tests
// (pipeline_digest_test, publish_digest_test) compare against. One line per
// pinned file:
//
//   <configuration> <file> <crc32> <size>
//
// and '#' starts a comment line. A change that means to move published
// bytes rewrites every list from its own run with
//
//   WCOP_WRITE_DIGESTS=1 ctest --test-dir build -R digest_test
//
// and says why in CHANGES.md. Every other change must pass unchanged.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "store/store_file.h"

namespace wcop {

/// File name -> "<crc32> <size>".
using FileDigests = std::map<std::string, std::string>;

/// "<crc32> <size>" of the file at `path`; empty, and a test failure, when
/// it cannot be read.
inline std::string DigestOf(const std::string& path) {
  Result<store::FileDigest> digest = store::DigestFile(path);
  EXPECT_TRUE(digest.ok()) << path << ": " << digest.status();
  if (!digest.ok()) {
    return "";
  }
  return std::to_string(digest->crc) + " " + std::to_string(digest->size);
}

class DigestList {
 public:
  /// Reads the list at `path`. With WCOP_WRITE_DIGESTS set it is rewritten
  /// instead: truncated to `header` (comment lines) here, then each
  /// configuration is appended by its first Expect.
  DigestList(std::string path, const std::string& header)
      : path_(std::move(path)),
        writing_(std::getenv("WCOP_WRITE_DIGESTS") != nullptr) {
    if (writing_) {
      std::ofstream(path_, std::ios::trunc) << header;
      return;
    }
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      std::istringstream fields(line);
      std::string config, file, crc, size;
      fields >> config >> file >> crc >> size;
      pinned_[config][file] = crc + " " + size;
    }
  }

  /// Expects `published` to equal the files pinned for `config`. When
  /// writing, the first call for a configuration pins what it published
  /// and later calls are checked against that.
  void Expect(const std::string& config, const FileDigests& published) {
    if (writing_ && pinned_.emplace(config, published).second) {
      std::ofstream list(path_, std::ios::app);
      for (const auto& [file, digest] : published) {
        list << config << " " << file << " " << digest << "\n";
      }
    }
    const auto it = pinned_.find(config);
    ASSERT_NE(it, pinned_.end()) << "no " << config << " lines in " << path_;
    EXPECT_EQ(published, it->second) << config;
  }

 private:
  std::string path_;
  bool writing_;
  std::map<std::string, FileDigests> pinned_;
};

}  // namespace wcop

#endif  // WCOP_TESTS_DIGEST_LIST_H_
