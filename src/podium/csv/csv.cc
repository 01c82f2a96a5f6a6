#include "podium/csv/csv.h"

#include <fstream>

#include "podium/util/file.h"
#include "podium/util/string_util.h"

namespace podium::csv {

int Table::ColumnIndex(std::string_view column) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == column) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// State machine over the raw text; handles quoted fields with embedded
/// delimiters/newlines and doubled quotes.
Result<std::vector<Row>> ParseRows(std::string_view text, char delimiter) {
  std::vector<Row> rows;
  Row current_row;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  int line = 1;

  auto end_field = [&] {
    current_row.push_back(std::move(field));
    field.clear();
    field_was_quoted = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(current_row));
    current_row.clear();
  };

  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        if (c == '\n') ++line;
        field.push_back(c);
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty() || field_was_quoted) {
          return Status::ParseError(util::StringPrintf(
              "unexpected quote inside unquoted field at line %d", line));
        }
        in_quotes = true;
        field_was_quoted = true;
        ++i;
        break;
      case '\r':
        // Swallow the \r of \r\n; a bare \r also terminates the row.
        if (i + 1 < n && text[i + 1] == '\n') ++i;
        end_row();
        ++line;
        ++i;
        break;
      case '\n':
        end_row();
        ++line;
        ++i;
        break;
      default:
        if (c == delimiter) {
          end_field();
        } else {
          field.push_back(c);
        }
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field at end of input");
  }
  // Final record without a trailing newline.
  if (!field.empty() || field_was_quoted || !current_row.empty()) {
    end_row();
  }
  return rows;
}

}  // namespace

Result<Table> Parse(std::string_view text, const ParseOptions& options) {
  Result<std::vector<Row>> rows = ParseRows(text, options.delimiter);
  if (!rows.ok()) return rows.status();

  Table table;
  std::vector<Row>& all = rows.value();
  std::size_t first_data = 0;
  if (options.has_header) {
    if (all.empty()) {
      return Status::ParseError("expected a header row, got empty input");
    }
    table.header = std::move(all[0]);
    first_data = 1;
  }
  const std::size_t expected_width =
      options.has_header ? table.header.size()
                         : (all.empty() ? 0 : all[0].size());
  for (std::size_t r = first_data; r < all.size(); ++r) {
    if (options.require_rectangular && all[r].size() != expected_width) {
      return Status::ParseError(util::StringPrintf(
          "row %zu has %zu fields, expected %zu", r + 1, all[r].size(),
          expected_width));
    }
    table.rows.push_back(std::move(all[r]));
  }
  return table;
}

Result<Table> ParseFile(const std::string& path, const ParseOptions& options) {
  Result<std::string> text = util::ReadFile(path);
  if (!text.ok()) return text.status();
  return Parse(text.value(), options);
}

namespace {

void AppendField(const std::string& field, char delimiter, std::string& out) {
  const bool needs_quoting =
      field.find(delimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos;
  if (!needs_quoting) {
    out += field;
    return;
  }
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void AppendRow(const Row& row, char delimiter, std::string& out) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(delimiter);
    AppendField(row[i], delimiter, out);
  }
  out.push_back('\n');
}

}  // namespace

std::string Write(const Table& table, const WriteOptions& options) {
  std::string out;
  if (!table.header.empty()) AppendRow(table.header, options.delimiter, out);
  for (const Row& row : table.rows) AppendRow(row, options.delimiter, out);
  return out;
}

Status WriteFile(const Table& table, const std::string& path,
                 const WriteOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open file for writing: " + path);
  out << Write(table, options);
  out.flush();
  if (!out) return Status::IoError("error writing file: " + path);
  return Status::Ok();
}

}  // namespace podium::csv
