#include "podium/json/lexer.h"

#include <cerrno>
#include <cstdlib>

#include "podium/util/string_util.h"

namespace podium::json {

namespace {

void AppendUtf8(unsigned cp, std::string& out) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

Status Lexer::Error(std::string_view message) const {
  return Status::ParseError(util::StringPrintf(
      "%.*s at line %d column %d", static_cast<int>(message.size()),
      message.data(), line_, Column()));
}

char Lexer::Advance() {
  const char c = text_[pos_++];
  if (c == '\n') {
    ++line_;
    line_start_ = pos_;
  }
  return c;
}

void Lexer::SkipWhitespace() {
  while (!AtEnd()) {
    const char c = Peek();
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    Advance();
  }
}

bool Lexer::ConsumeLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();  // literals hold no newline
  return true;
}

Status Lexer::BeginDocument() {
  if (options_.max_document_bytes > 0 &&
      text_.size() > options_.max_document_bytes) {
    return Error(util::StringPrintf(
        "document size %zu exceeds limit of %zu bytes", text_.size(),
        options_.max_document_bytes));
  }
  SkipWhitespace();
  return Status::Ok();
}

Status Lexer::EndDocument() {
  SkipWhitespace();
  if (!AtEnd()) return Error("trailing characters after JSON document");
  return Status::Ok();
}

Status Lexer::BeginValue(int depth) {
  // The root value sits at depth 0, so a document nested more than
  // max_depth levels deep is rejected exactly at the limit.
  if (depth >= options_.max_depth) return Error("nesting depth exceeded");
  if (options_.max_total_nodes > 0 &&
      ++node_count_ > options_.max_total_nodes) {
    return Error(util::StringPrintf("node count exceeds limit of %zu",
                                    options_.max_total_nodes));
  }
  if (AtEnd()) return Error("unexpected end of input");
  return Status::Ok();
}

Result<bool> Lexer::NextMember(bool first, std::string& key) {
  if (first) {
    Advance();  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      Advance();
      return false;
    }
  } else {
    SkipWhitespace();
    if (AtEnd()) return Error("unterminated object");
    const char c = Advance();
    if (c == '}') return false;
    if (c != ',') return Error("expected ',' or '}' in object");
  }
  SkipWhitespace();
  if (AtEnd() || Peek() != '"') return Error("expected object key");
  key.clear();
  PODIUM_RETURN_IF_ERROR(ReadString(key));
  SkipWhitespace();
  if (AtEnd() || Peek() != ':') return Error("expected ':' after key");
  Advance();
  SkipWhitespace();
  return true;
}

Result<bool> Lexer::NextElement(bool first) {
  if (first) {
    Advance();  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      Advance();
      return false;
    }
  } else {
    SkipWhitespace();
    if (AtEnd()) return Error("unterminated array");
    const char c = Advance();
    if (c == ']') return false;
    if (c != ',') return Error("expected ',' or ']' in array");
  }
  SkipWhitespace();
  return true;
}

Status Lexer::ReadString(std::string& out) {
  Advance();  // '"'
  for (;;) {
    // Copy the run of bytes that need no attention in one append; none of
    // them is a newline, so the line count stays right.
    const std::size_t run = pos_;
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      ++pos_;
    }
    out.append(text_.data() + run, pos_ - run);
    if (AtEnd()) return Error("unterminated string");
    const char c = Advance();
    if (c == '"') return Status::Ok();
    if (c != '\\') return Error("unescaped control character in string");
    if (AtEnd()) return Error("unterminated escape");
    switch (Advance()) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case '/':
        out.push_back('/');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u': {
        Result<unsigned> cp = ParseHex4();
        if (!cp.ok()) return cp.status();
        unsigned code_point = cp.value();
        // Combine surrogate pairs into a single code point.
        if (code_point >= 0xD800 && code_point <= 0xDBFF) {
          if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
              text_[pos_ + 1] == 'u') {
            Advance();
            Advance();
            Result<unsigned> low = ParseHex4();
            if (!low.ok()) return low.status();
            if (low.value() < 0xDC00 || low.value() > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code_point = 0x10000 + ((code_point - 0xD800) << 10) +
                         (low.value() - 0xDC00);
          } else {
            return Error("unpaired high surrogate");
          }
        } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
          return Error("unpaired low surrogate");
        }
        AppendUtf8(code_point, out);
        break;
      }
      default:
        return Error("invalid escape character");
    }
  }
}

Result<unsigned> Lexer::ParseHex4() {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    if (AtEnd()) return Error("truncated \\u escape");
    const char c = Advance();
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      return Error("invalid hex digit in \\u escape");
    }
  }
  return value;
}

Status Lexer::ReadNumber(double& out) {
  const std::size_t start = pos_;
  if (!AtEnd() && Peek() == '-') Advance();
  if (AtEnd() || !IsDigit(Peek())) return Error("invalid number");
  // Integer part: either a single 0 or a nonzero-led digit run.
  if (Peek() == '0') {
    Advance();
  } else {
    while (!AtEnd() && IsDigit(Peek())) Advance();
  }
  if (!AtEnd() && Peek() == '.') {
    Advance();
    if (AtEnd() || !IsDigit(Peek())) {
      return Error("expected digits after decimal point");
    }
    while (!AtEnd() && IsDigit(Peek())) Advance();
  }
  if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
    Advance();
    if (!AtEnd() && (Peek() == '+' || Peek() == '-')) Advance();
    if (AtEnd() || !IsDigit(Peek())) {
      return Error("expected digits in exponent");
    }
    while (!AtEnd() && IsDigit(Peek())) Advance();
  }
  number_.assign(text_.data() + start, pos_ - start);
  errno = 0;
  char* end = nullptr;
  out = std::strtod(number_.c_str(), &end);
  if (errno == ERANGE) return Error("number out of range");
  if (end != number_.c_str() + number_.size()) return Error("invalid number");
  return Status::Ok();
}

Status Lexer::ReadScalar(Scalar& out) {
  switch (Peek()) {
    case '"':
      out.type = Type::kString;
      out.string.clear();
      return ReadString(out.string);
    case 't':
    case 'f':
      out.type = Type::kBool;
      out.boolean = Peek() == 't';
      if (ConsumeLiteral(out.boolean ? "true" : "false")) return Status::Ok();
      return Error("invalid literal");
    case 'n':
      out.type = Type::kNull;
      if (ConsumeLiteral("null")) return Status::Ok();
      return Error("invalid literal");
    default:
      out.type = Type::kNumber;
      return ReadNumber(out.number);
  }
}

Status Lexer::SkipValue(int depth) {
  const char c = Peek();
  if (c != '{' && c != '[') return ReadScalar(skipped_);
  for (bool first = true;; first = false) {
    Result<bool> more =
        c == '{' ? NextMember(first, skipped_.string) : NextElement(first);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::Ok();
    PODIUM_RETURN_IF_ERROR(BeginValue(depth + 1));
    PODIUM_RETURN_IF_ERROR(SkipValue(depth + 1));
  }
}

}  // namespace podium::json
