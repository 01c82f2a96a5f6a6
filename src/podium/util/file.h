#ifndef PODIUM_UTIL_FILE_H_
#define PODIUM_UTIL_FILE_H_

#include <string>

#include "podium/util/result.h"

namespace podium::util {

/// Reads the whole file at `path` into a string of exactly its size, with
/// one copy of the bytes. Fails with IoError "cannot open file: <path>"
/// or "error reading file: <path>".
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

}  // namespace podium::util

#endif  // PODIUM_UTIL_FILE_H_
