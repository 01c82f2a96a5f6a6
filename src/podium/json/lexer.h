#ifndef PODIUM_JSON_LEXER_H_
#define PODIUM_JSON_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "podium/json/parser.h"
#include "podium/json/value.h"
#include "podium/util/result.h"

namespace podium::json {

/// A scalar as the lexer reads it: null, bool, number or string.
struct Scalar {
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;  // kString only
};

/// The JSON grammar over a string_view, one token at a time. Parse builds
/// a Value tree on it; streaming readers (profile's ParseRepositoryJson)
/// walk a document with it and build their own structures. Either way
/// the grammar errors, the ParseOptions limits and the line:column
/// positions come from here, so a document fails the same way, at the
/// same position, whichever reader reads it.
///
/// A document is BeginDocument, one value, EndDocument. A value at depth
/// d (the root is 0) is BeginValue(d), then by Peek(): members through
/// NextMember for '{', elements through NextElement for '[', ReadScalar
/// for anything else — or SkipValue(d) for all three.
class Lexer {
 public:
  explicit Lexer(std::string_view text, const ParseOptions& options = {})
      : text_(text), options_(options) {}

  /// Enforces the document size limit and skips leading whitespace.
  Status BeginDocument();
  /// Skips trailing whitespace; anything else is an error.
  Status EndDocument();

  /// Starts the value at `depth`: enforces the depth and node limits and
  /// fails at end of input. On success Peek() is the value's first byte.
  Status BeginValue(int depth);
  char Peek() const { return text_[pos_]; }

  /// Steps through an object whose BeginValue succeeded: `first` for the
  /// call at its '{', then once after each member's value. Returns true
  /// with the next key in `key` (the lexer then sits at the value), or
  /// false once the closing '}' is consumed.
  Result<bool> NextMember(bool first, std::string& key);

  /// As NextMember, for the elements of an array.
  Result<bool> NextElement(bool first);

  /// Reads the string at '"', unescaped, appending it to `out`.
  Status ReadString(std::string& out);

  /// Reads the null, bool, number or string whose BeginValue succeeded.
  /// Numbers go through strtod: values it reports out of range (overflow,
  /// and subnormal underflow) are errors.
  Status ReadScalar(Scalar& out);

  /// Checks and discards the value whose BeginValue(depth) succeeded,
  /// with exactly the checks of reading it.
  Status SkipValue(int depth);

 private:
  /// ParseError "<message> at line L column C" at the current position.
  Status Error(std::string_view message) const;
  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Advance();
  void SkipWhitespace();
  bool ConsumeLiteral(std::string_view literal);
  Result<unsigned> ParseHex4();
  Status ReadNumber(double& out);

  std::string_view text_;
  ParseOptions options_;
  std::size_t node_count_ = 0;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;
  std::string number_;  // strtod needs a NUL-terminated copy of the token
  Scalar skipped_;      // SkipValue's scratch
};

}  // namespace podium::json

#endif  // PODIUM_JSON_LEXER_H_
