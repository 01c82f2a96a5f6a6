#include "podium/json/writer.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>

namespace podium::json {

namespace {

class Writer {
 public:
  explicit Writer(const WriteOptions& options) : options_(options) {}

  std::string Run(const Value& value) {
    Append(value, 0);
    return std::move(out_);
  }

 private:
  void Newline(int depth) {
    if (options_.indent <= 0) return;
    out_.push_back('\n');
    out_.append(static_cast<std::size_t>(options_.indent * depth), ' ');
  }

  void Append(const Value& value, int depth) {
    switch (value.type()) {
      case Type::kNull:
        out_ += "null";
        break;
      case Type::kBool:
        out_ += value.AsBool() ? "true" : "false";
        break;
      case Type::kNumber:
        AppendNumber(value.AsNumber(), out_);
        break;
      case Type::kString:
        AppendEscaped(value.AsString(), out_);
        break;
      case Type::kArray: {
        const Array& array = value.AsArray();
        if (array.empty()) {
          out_ += "[]";
          break;
        }
        out_.push_back('[');
        for (std::size_t i = 0; i < array.size(); ++i) {
          if (i > 0) out_.push_back(',');
          Newline(depth + 1);
          Append(array[i], depth + 1);
        }
        Newline(depth);
        out_.push_back(']');
        break;
      }
      case Type::kObject: {
        const Object& object = value.AsObject();
        if (object.empty()) {
          out_ += "{}";
          break;
        }
        out_.push_back('{');
        bool first = true;
        for (const auto& [key, entry] : object.entries()) {
          if (!first) out_.push_back(',');
          first = false;
          Newline(depth + 1);
          AppendEscaped(key, out_);
          out_.push_back(':');
          if (options_.indent > 0) out_.push_back(' ');
          Append(entry, depth + 1);
        }
        Newline(depth);
        out_.push_back('}');
        break;
      }
    }
  }

  const WriteOptions& options_;
  std::string out_;
};

}  // namespace

void AppendEscaped(std::string_view text, std::string& out) {
  out.push_back('"');
  // Bytes that need no escape are appended a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out.push_back('"');
}

void AppendNumber(double value, std::string& out) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  char* end = buf;
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    if (value == 0 && std::signbit(value)) *end++ = '-';
    end = std::to_chars(end, std::end(buf), static_cast<std::int64_t>(value))
              .ptr;
  } else {
    // to_chars with a precision prints what printf's %.*g prints.
    end = std::to_chars(buf, std::end(buf), value, std::chars_format::general,
                        15)
              .ptr;
    double back = 0.0;
    const std::from_chars_result read = std::from_chars(buf, end, back);
    if (read.ec != std::errc() || back != value) {
      end = std::to_chars(buf, std::end(buf), value,
                          std::chars_format::general, 17)
                .ptr;
    }
  }
  out.append(buf, end);
}

std::string Write(const Value& value, const WriteOptions& options) {
  Writer writer(options);
  return writer.Run(value);
}

Status WriteFile(const Value& value, const std::string& path,
                 const WriteOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open file for writing: " + path);
  const std::string text = Write(value, options);
  out << text << '\n';
  out.flush();
  if (!out) return Status::IoError("error writing file: " + path);
  return Status::Ok();
}

}  // namespace podium::json
