#ifndef PODIUM_JSON_WRITER_H_
#define PODIUM_JSON_WRITER_H_

#include <string>
#include <string_view>

#include "podium/json/value.h"
#include "podium/util/status.h"

namespace podium::json {

struct WriteOptions {
  /// Pretty-print with this many spaces per indent level; 0 emits a compact
  /// single-line document.
  int indent = 0;
};

/// Serializes `value` as JSON text, through AppendEscaped and AppendNumber.
std::string Write(const Value& value, const WriteOptions& options = {});

/// Writes `value` to the file at `path`, replacing any existing contents.
[[nodiscard]] Status WriteFile(const Value& value, const std::string& path,
                 const WriteOptions& options = {});

/// The writer's two token formatters, for callers that stream a document
/// straight into a string instead of building a Value tree first. Bytes
/// match Write's exactly.

/// Appends `text` as a quoted JSON string: `"` and `\` escaped, control
/// characters as \b \f \n \r \t or \u00xx, every other byte (UTF-8
/// included) as it is.
void AppendEscaped(std::string_view text, std::string& out);

/// Appends `value` as a JSON number, as printf would print it: NaN and
/// ±inf as null (JSON has neither); an integral value below 1e15 in
/// magnitude as %.0f does (-0 as "-0"); anything else as %.15g when that
/// reads back as the same double, else as %.17g, which always does.
void AppendNumber(double value, std::string& out);

}  // namespace podium::json

#endif  // PODIUM_JSON_WRITER_H_
