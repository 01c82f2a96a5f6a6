#include "podium/util/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace podium::util {

namespace {

/// Reads into text[filled, text.size()) until it is full or the file
/// ends; returns the new fill level, or -1 on a read error.
ssize_t FillFrom(int fd, std::string& text, std::size_t filled) {
  while (filled < text.size()) {
    const ssize_t got = ::read(fd, text.data() + filled, text.size() - filled);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return -1;
    if (got == 0) break;
    filled += static_cast<std::size_t>(got);
  }
  return static_cast<ssize_t>(filled);
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open file: " + path);
  struct stat info {};
  // A regular file is read in one exact-size buffer. Anything else (a
  // pipe, a character device, a /proc file reporting size 0) grows in
  // chunks.
  const bool sized = ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode) &&
                     info.st_size > 0;
  std::string text(sized ? static_cast<std::size_t>(info.st_size) : 0, '\0');
  ssize_t filled = FillFrom(fd, text, 0);
  while (!sized && filled == static_cast<ssize_t>(text.size())) {
    text.resize(text.size() + 65536);
    filled = FillFrom(fd, text, static_cast<std::size_t>(filled));
  }
  ::close(fd);
  if (filled < 0) return Status::IoError("error reading file: " + path);
  // A file that shrank while it was read keeps what was there.
  text.resize(static_cast<std::size_t>(filled));
  return text;
}

}  // namespace podium::util
