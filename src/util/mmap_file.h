// A whole file's bytes, read once: the one reader behind `.kpx`
// snapshots, result-store entries and store.idx. Where the platform and
// the file allow it the file is mapped read-only, so the kernel pages
// bytes in on demand and may reclaim clean pages under pressure: a
// mapped graph costs page-cache residency rather than private heap.
// Otherwise the file is read into one 8-byte-aligned heap buffer. Either
// way an 8-byte-aligned offset into data() may be read as a uint64_t,
// and sharing the handle keeps the bytes alive.

#ifndef KPLEX_UTIL_MMAP_FILE_H_
#define KPLEX_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"

namespace kplex {

class MappedFile {
 public:
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Reads `path` whole: mapped when it can be, buffered otherwise.
  /// Returns IoError when the file cannot be opened or read or is not a
  /// regular file. A zero-length file yields data() == nullptr,
  /// size() == 0.
  static StatusOr<std::shared_ptr<const MappedFile>> Open(
      const std::string& path);

  /// True when this build can mmap at all (compile-time capability).
  static bool Supported();

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// True when data() points into a mapping rather than the heap.
  bool mapped() const { return data_ != nullptr && buffer_ == nullptr; }

 private:
  MappedFile() = default;

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::unique_ptr<unsigned char[]> buffer_;  // the buffered read, if any
};

}  // namespace kplex

#endif  // KPLEX_UTIL_MMAP_FILE_H_
