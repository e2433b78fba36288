#include "util/mmap_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace kplex {

MappedFile::~MappedFile() {
#if KPLEX_HAVE_MMAP
  if (mapped()) ::munmap(const_cast<unsigned char*>(data_), size_);
#endif
}

StatusOr<std::shared_ptr<const MappedFile>> MappedFile::Open(
    const std::string& path) {
  std::shared_ptr<MappedFile> file(new MappedFile());
#if KPLEX_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  if (regular && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped != MAP_FAILED) {
      file->data_ = static_cast<const unsigned char*>(mapped);
      file->size_ = size;
    }
  }
  ::close(fd);  // the mapping outlives the descriptor
  if (!regular) return Status::IoError("'" + path + "' is not a regular file");
  if (file->data_ != nullptr || st.st_size == 0) {
    return std::shared_ptr<const MappedFile>(std::move(file));
  }
#endif
  // The buffered read. A new[]'d unsigned char array is aligned for any
  // fundamental type that fits in it, uint64_t included.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  long length = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) length = std::ftell(f);
  if (length < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot size '" + path + "'");
  }
  file->size_ = static_cast<std::size_t>(length);
  if (file->size_ > 0) {
    file->buffer_ = std::make_unique_for_overwrite<unsigned char[]>(
        file->size_);
    file->data_ = file->buffer_.get();
  }
  const bool read = file->size_ == 0 || std::fread(file->buffer_.get(), 1,
                                                   file->size_,
                                                   f) == file->size_;
  std::fclose(f);
  if (!read) return Status::IoError("short read of '" + path + "'");
  return std::shared_ptr<const MappedFile>(std::move(file));
}

bool MappedFile::Supported() {
#if KPLEX_HAVE_MMAP
  return true;
#else
  return false;
#endif
}

}  // namespace kplex
