#include "podium/json/parser.h"

#include "podium/json/lexer.h"
#include "podium/util/file.h"

namespace podium::json {

namespace {

/// Builds a Value tree over the shared lexer.
class TreeBuilder {
 public:
  TreeBuilder(std::string_view text, const ParseOptions& options)
      : lexer_(text, options) {}

  Result<Value> ParseDocument() {
    PODIUM_RETURN_IF_ERROR(lexer_.BeginDocument());
    Result<Value> value = ParseValue(0);
    if (!value.ok()) return value;
    PODIUM_RETURN_IF_ERROR(lexer_.EndDocument());
    return value;
  }

 private:
  Result<Value> ParseValue(int depth) {
    PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(depth));
    if (lexer_.Peek() == '{') return ParseObject(depth);
    if (lexer_.Peek() == '[') return ParseArray(depth);
    PODIUM_RETURN_IF_ERROR(lexer_.ReadScalar(scalar_));
    switch (scalar_.type) {
      case Type::kBool:
        return Value(scalar_.boolean);
      case Type::kNumber:
        return Value(scalar_.number);
      case Type::kString:
        return Value(std::move(scalar_.string));
      default:
        return Value(nullptr);
    }
  }

  Result<Value> ParseObject(int depth) {
    Object object;
    for (bool first = true;; first = false) {
      std::string key;
      Result<bool> more = lexer_.NextMember(first, key);
      if (!more.ok()) return more.status();
      if (!more.value()) return Value(std::move(object));
      Result<Value> value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      object.Set(std::move(key), std::move(value).value());
    }
  }

  Result<Value> ParseArray(int depth) {
    Array array;
    for (bool first = true;; first = false) {
      Result<bool> more = lexer_.NextElement(first);
      if (!more.ok()) return more.status();
      if (!more.value()) return Value(std::move(array));
      Result<Value> value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      array.push_back(std::move(value).value());
    }
  }

  Lexer lexer_;
  Scalar scalar_;
};

}  // namespace

Result<Value> Parse(std::string_view text, const ParseOptions& options) {
  return TreeBuilder(text, options).ParseDocument();
}

Result<Value> ParseFile(const std::string& path, const ParseOptions& options) {
  Result<std::string> text = util::ReadFile(path);
  if (!text.ok()) return text.status();
  return Parse(text.value(), options);
}

}  // namespace podium::json
