#ifndef PODIUM_UTIL_STRING_UTIL_H_
#define PODIUM_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace podium::util {

/// Splits `input` on `delimiter`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Joins `parts` with `separator` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view input);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a double with `digits` significant fraction digits, trimming
/// trailing zeros ("0.25", "3", "0.333").
std::string FormatDouble(double value, int digits = 4);

/// Transparent hash for std::string-keyed unordered containers: paired
/// with std::equal_to<>, find() and contains() take a std::string_view
/// and build no temporary std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

}  // namespace podium::util

#endif  // PODIUM_UTIL_STRING_UTIL_H_
