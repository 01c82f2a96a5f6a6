#include "podium/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "podium/util/string_util.h"

namespace podium::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// A source file split into per-line code and comment channels. Comments,
/// string literals and character literals are removed from `code` (so the
/// rules below can scan for tokens without tripping over prose or data),
/// and comment text is preserved per line for the suppression and
/// todo-owner rules.
struct ScannedSource {
  std::vector<std::string> code;
  std::vector<std::string> comment;
};

ScannedSource Scan(std::string_view text) {
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };

  ScannedSource out;
  std::string code_line;
  std::string comment_line;
  State state = State::kCode;
  std::string raw_delimiter;  // for kRawString: the ")delim" terminator

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comment.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary string/char literals cannot span lines;
      // recover rather than swallowing the rest of the file.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // R"delim(...)delim" — the prefix letter is still sitting at the
          // end of code_line. (uR / u8R / LR prefixes all end in R.)
          const bool raw =
              !code_line.empty() && code_line.back() == 'R' &&
              (code_line.size() < 2 ||
               !IsIdentChar(code_line[code_line.size() - 2]) ||
               util::EndsWith(code_line, "u8R") ||
               util::EndsWith(code_line, "uR") ||
               util::EndsWith(code_line, "UR") ||
               util::EndsWith(code_line, "LR"));
          if (raw) {
            raw_delimiter = ")";
            std::size_t j = i + 1;
            while (j < n && text[j] != '(') raw_delimiter += text[j++];
            raw_delimiter += '"';
            i = j;  // consume through the opening '('
            state = State::kRawString;
          } else {
            state = State::kString;
          }
        } else if (c == '\'' &&
                   (code_line.empty() || !IsIdentChar(code_line.back()))) {
          // The guard keeps digit separators (1'000'000) in the code
          // channel instead of opening a bogus char literal.
          state = State::kChar;
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          ++i;  // skip the escaped character
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
        }
        break;
      case State::kRawString: {
        const std::string_view rest = text.substr(i);
        if (util::StartsWith(rest, raw_delimiter)) {
          i += raw_delimiter.size() - 1;
          state = State::kCode;
        }
        break;
      }
    }
  }
  flush_line();  // final line (files without trailing newline)
  return out;
}

/// Suppressions: `// podium-lint: allow(rule-a, rule-b)` silences those
/// rules on its own line and on the line directly below (so the comment
/// can trail the offending statement or sit on the line above it).
std::map<int, std::set<std::string>> ParseSuppressions(
    const ScannedSource& source) {
  std::map<int, std::set<std::string>> allowed;
  for (std::size_t i = 0; i < source.comment.size(); ++i) {
    const std::string& comment = source.comment[i];
    std::size_t pos = comment.find("podium-lint:");
    while (pos != std::string::npos) {
      const std::size_t open = comment.find("allow(", pos);
      if (open == std::string::npos) break;
      const std::size_t close = comment.find(')', open);
      if (close == std::string::npos) break;
      const std::string_view inside(comment.data() + open + 6,
                                    close - open - 6);
      for (const std::string& rule : util::Split(inside, ',')) {
        const std::string_view trimmed = util::StripWhitespace(rule);
        if (!trimmed.empty()) {
          allowed[static_cast<int>(i) + 1].emplace(trimmed);
        }
      }
      pos = comment.find("podium-lint:", close);
    }
  }
  return allowed;
}

bool IsSuppressed(const std::map<int, std::set<std::string>>& allowed,
                  int line, const std::string& rule) {
  for (int candidate : {line, line - 1}) {
    auto it = allowed.find(candidate);
    if (it != allowed.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

/// An identifier token and where it sits in its line.
struct Token {
  std::string text;
  std::size_t begin = 0;  // column of the first character
  std::size_t end = 0;    // one past the last character
};

std::vector<Token> IdentifiersIn(const std::string& line) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (IsIdentStart(line[i]) && (i == 0 || !IsIdentChar(line[i - 1]))) {
      Token token;
      token.begin = i;
      while (i < line.size() && IsIdentChar(line[i])) token.text += line[i++];
      token.end = i;
      tokens.push_back(std::move(token));
    } else {
      ++i;
    }
  }
  return tokens;
}

char FirstNonSpaceAfter(const std::string& line, std::size_t pos) {
  while (pos < line.size()) {
    if (line[pos] != ' ' && line[pos] != '\t') return line[pos];
    ++pos;
  }
  return '\0';
}

char LastNonSpaceBefore(const std::string& line, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (line[pos] != ' ' && line[pos] != '\t') return line[pos];
  }
  return '\0';
}

struct BannedFunction {
  std::string_view name;
  std::string_view hint;
};

constexpr std::string_view kParseHint =
    "use the checked parsers in podium/util/parse.h";
constexpr std::string_view kRngHint =
    "use podium::util::Rng (podium/util/rng.h) for reproducible streams";
constexpr std::string_view kChronoHint = "use std::chrono clocks";
constexpr std::string_view kStringHint =
    "use std::string / util::StringPrintf";

constexpr BannedFunction kBannedFunctions[] = {
    {"atoi", kParseHint},     {"atol", kParseHint},
    {"atoll", kParseHint},    {"atof", kParseHint},
    {"strtol", kParseHint},   {"strtoll", kParseHint},
    {"strtoul", kParseHint},  {"strtoull", kParseHint},
    {"stoi", kParseHint},     {"stol", kParseHint},
    {"stoll", kParseHint},    {"stoul", kParseHint},
    {"stoull", kParseHint},   {"rand", kRngHint},
    {"srand", kRngHint},      {"rand_r", kRngHint},
    {"time", kChronoHint},    {"strcpy", kStringHint},
    {"strcat", kStringHint},  {"sprintf", kStringHint},
    {"vsprintf", kStringHint}, {"gets", kStringHint},
};

const BannedFunction* FindBanned(const std::string& name) {
  for (const BannedFunction& banned : kBannedFunctions) {
    if (banned.name == name) return &banned;
  }
  return nullptr;
}

/// One include directive, as written.
struct Include {
  int line = 0;
  std::string target;
  bool quoted = false;
};

std::vector<Include> ExtractIncludes(
    const ScannedSource& source,
    const std::vector<std::string>& original_lines) {
  std::vector<Include> includes;
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    const std::string_view code = util::StripWhitespace(source.code[i]);
    if (!util::StartsWith(code, "#")) continue;
    const std::string_view directive =
        util::StripWhitespace(code.substr(1));
    if (!util::StartsWith(directive, "include")) continue;
    // The include target was blanked out of the code channel along with
    // every other string literal; recover it from the original line.
    if (i >= original_lines.size()) continue;
    const std::string& original = original_lines[i];
    Include include;
    include.line = static_cast<int>(i) + 1;
    std::size_t open = original.find('"');
    if (open != std::string::npos) {
      const std::size_t close = original.find('"', open + 1);
      if (close == std::string::npos) continue;
      include.target = original.substr(open + 1, close - open - 1);
      include.quoted = true;
    } else {
      open = original.find('<');
      const std::size_t close = original.find('>', open + 1);
      if (open == std::string::npos || close == std::string::npos) continue;
      include.target = original.substr(open + 1, close - open - 1);
    }
    includes.push_back(std::move(include));
  }
  return includes;
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t newline = text.find('\n', start);
    if (newline == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, newline - start));
    start = newline + 1;
  }
  return lines;
}

std::string NormalizePath(std::string_view path) {
  std::string normalized(path);
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  return normalized;
}

bool PathIsUnder(const std::string& path, std::string_view prefix) {
  return util::StartsWith(path, prefix) ||
         path.find(std::string("/") + std::string(prefix)) !=
             std::string::npos;
}

// --- Rules -----------------------------------------------------------------

void CheckBannedFunctions(const ScannedSource& source,
                          std::vector<Finding>* findings) {
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    for (const Token& token : IdentifiersIn(source.code[i])) {
      const BannedFunction* banned = FindBanned(token.text);
      if (banned == nullptr) continue;
      if (FirstNonSpaceAfter(source.code[i], token.end) != '(') continue;
      Finding finding;
      finding.line = static_cast<int>(i) + 1;
      finding.rule = "banned-function";
      finding.message = "call to banned function '" + token.text + "'; " +
                        std::string(banned->hint);
      findings->push_back(std::move(finding));
    }
  }
}

void CheckIncludeOrder(const std::string& path,
                       const std::vector<Include>& includes,
                       std::vector<Finding>* findings) {
  // src/**/*.cc must include its own header before anything else, so every
  // header is provably self-contained.
  const std::size_t src = path.rfind("src/");
  if (src == std::string::npos || !util::EndsWith(path, ".cc")) return;
  std::string expected = path.substr(src + 4);
  expected.replace(expected.size() - 3, 3, ".h");
  for (std::size_t i = 0; i < includes.size(); ++i) {
    if (includes[i].target != expected) continue;
    if (i == 0) return;  // own header is first: fine
    Finding finding;
    finding.line = includes[i].line;
    finding.rule = "include-first";
    finding.message = "own header \"" + expected +
                      "\" must be the first include of this file";
    findings->push_back(std::move(finding));
    return;
  }
  // A .cc without its own header (tool mains, generated files) is exempt.
}

void CheckTestInternalIncludes(const std::string& path,
                               const std::vector<Include>& includes,
                               std::vector<Finding>* findings) {
  if (!PathIsUnder(path, "tests/")) return;
  for (const Include& include : includes) {
    if (!include.quoted) continue;
    const bool internal = util::EndsWith(include.target, "internal.h") ||
                          include.target.find("/internal/") !=
                              std::string::npos;
    if (!internal) continue;
    Finding finding;
    finding.line = include.line;
    finding.rule = "test-internal-include";
    finding.message = "tests must not include internal header \"" +
                      include.target +
                      "\"; exercise the public interface instead";
    findings->push_back(std::move(finding));
  }
}

void CheckTodoOwner(const ScannedSource& source,
                    std::vector<Finding>* findings) {
  for (std::size_t i = 0; i < source.comment.size(); ++i) {
    const std::string& comment = source.comment[i];
    std::size_t pos = comment.find("TODO");
    while (pos != std::string::npos) {
      const bool word_start = pos == 0 || !IsIdentChar(comment[pos - 1]);
      const char after =
          pos + 4 < comment.size() ? comment[pos + 4] : '\0';
      if (word_start && !IsIdentChar(after) && after != '(') {
        Finding finding;
        finding.line = static_cast<int>(i) + 1;
        finding.rule = "todo-owner";
        finding.message =
            "TODO without an owner; write TODO(name): so it can be routed";
        findings->push_back(std::move(finding));
        break;  // one finding per line is enough
      }
      pos = comment.find("TODO", pos + 4);
    }
  }
}

void CheckRawNewDelete(const std::string& path, const ScannedSource& source,
                       std::vector<Finding>* findings) {
  // util/ owns the leak-on-purpose singletons and the allocator-shaped
  // helpers; everywhere else ownership must be spelled with smart
  // pointers or containers.
  if (PathIsUnder(path, "src/podium/util/")) return;
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    const std::string& line = source.code[i];
    const std::vector<Token> tokens = IdentifiersIn(line);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      const Token& token = tokens[t];
      const bool is_new = token.text == "new";
      const bool is_delete = token.text == "delete";
      if (!is_new && !is_delete) continue;
      if (is_delete) {
        // `Foo(const Foo&) = delete;` and `operator delete` are not
        // deallocations.
        if (t > 0 && tokens[t - 1].text == "operator") continue;
        char before = LastNonSpaceBefore(line, token.begin);
        if (before == '\0' && i > 0) {
          const std::string& previous = source.code[i - 1];
          before = LastNonSpaceBefore(previous, previous.size());
        }
        if (before == '=') continue;
      }
      if (is_new) {
        // `operator new` overloads (declaration sites) are allowed.
        if (t > 0 && tokens[t - 1].text == "operator") continue;
      }
      Finding finding;
      finding.line = static_cast<int>(i) + 1;
      finding.rule = "raw-new";
      finding.message = "raw '" + token.text +
                        "' outside util/; use std::make_unique / "
                        "std::make_shared or a container";
      findings->push_back(std::move(finding));
    }
  }
}

void CheckRawStderr(const std::string& path, const ScannedSource& source,
                    std::vector<Finding>* findings) {
  // The serve stack and the tools log through podium::obs::Log — JSON
  // lines that carry a level, a timestamp and the request's trace id.
  // A raw fprintf(stderr, ...) there bypasses the sink, the level filter
  // and the rate limiter, and corrupts log pipelines with unstructured
  // text. Deliberate terminal output (usage text) carries an explicit
  // `podium-lint: allow(raw-stderr)`.
  if (!PathIsUnder(path, "src/podium/serve/") &&
      !PathIsUnder(path, "tools/")) {
    return;
  }
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    const std::string& line = source.code[i];
    const std::vector<Token> tokens = IdentifiersIn(line);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      if (tokens[t].text != "fprintf") continue;
      if (FirstNonSpaceAfter(line, tokens[t].end) != '(') continue;
      // The stream is the first argument: the next identifier on this
      // line, or the first one on the next line when the call wraps.
      std::string stream;
      if (t + 1 < tokens.size()) {
        stream = tokens[t + 1].text;
      } else if (i + 1 < source.code.size()) {
        const std::vector<Token> next_tokens =
            IdentifiersIn(source.code[i + 1]);
        if (!next_tokens.empty()) stream = next_tokens[0].text;
      }
      if (stream != "stderr") continue;
      Finding finding;
      finding.line = static_cast<int>(i) + 1;
      finding.rule = "raw-stderr";
      finding.message =
          "raw fprintf(stderr, ...) in the serve/tools layer; log through "
          "podium::obs::Log (podium/obs/log.h)";
      findings->push_back(std::move(finding));
    }
  }
}

void CheckIntrinsicsScope(const std::string& path,
                          const ScannedSource& source,
                          const std::vector<Include>& includes,
                          std::vector<Finding>* findings) {
  // SIMD intrinsics and type punning are confined to the kernel layer and
  // the arena: kernels.* owns every <immintrin.h> gather (and its lane
  // reinterpret_casts), arena.* owns the single Launder<T> that turns raw
  // bytes into typed spans. Anywhere else, a reinterpret_cast is either a
  // bug or a call for one of those two abstractions; OS-interface casts
  // (sockaddr) carry an explicit `podium-lint: allow(intrinsics-scope)`.
  //
  // Shard-arena ownership: `shard/*.cc` *owns* per-shard arenas (each
  // shard of a ShardedSnapshot sizes one util::Arena for its CSR slices)
  // but it is deliberately NOT on the exemption list — owning an arena
  // means requesting typed spans via Arena::AllocateSpan<T>, never
  // re-punning the raw block, so shard code stays under the same
  // confinement as every other caller.
  if (PathIsUnder(path, "src/podium/core/kernels.") ||
      PathIsUnder(path, "src/podium/util/arena.")) {
    return;
  }
  for (const Include& include : includes) {
    if (!util::EndsWith(include.target, "intrin.h")) continue;
    Finding finding;
    finding.line = include.line;
    finding.rule = "intrinsics-scope";
    finding.message =
        "#include <" + include.target +
        "> outside the kernel layer; SIMD code lives in "
        "src/podium/core/kernels.*";
    findings->push_back(std::move(finding));
  }
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    for (const Token& token : IdentifiersIn(source.code[i])) {
      if (token.text != "reinterpret_cast") continue;
      Finding finding;
      finding.line = static_cast<int>(i) + 1;
      finding.rule = "intrinsics-scope";
      finding.message =
          "reinterpret_cast outside src/podium/core/kernels.* and "
          "src/podium/util/arena.*; use util::Arena spans or std::bit_cast";
      findings->push_back(std::move(finding));
    }
  }
}

bool LineDeclaresMutexMember(const std::string& code_line) {
  const std::string_view stripped = util::StripWhitespace(code_line);
  if (!util::EndsWith(stripped, ";")) return false;
  if (stripped.find('(') != std::string_view::npos) return false;
  const std::vector<Token> tokens = IdentifiersIn(code_line);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t].text == "Mutex") return true;
    if (tokens[t].text == "mutex" && t > 0 && tokens[t - 1].text == "std") {
      return true;
    }
  }
  return false;
}

bool LineHasExemptMemberType(const std::string& code_line) {
  for (const Token& token : IdentifiersIn(code_line)) {
    if (token.text == "atomic" || token.text == "CondVar" ||
        token.text == "condition_variable" || token.text == "thread" ||
        token.text == "Mutex" || token.text == "mutex" ||
        token.text == "constexpr" || token.text == "static") {
      return true;
    }
  }
  return false;
}

/// The declared name of a simple member declaration: the identifier right
/// before the first of `;` `=` `{` — or "" when the line does not look
/// like one (function declarations end in `)` before the `;`).
std::string DeclaredMemberName(const std::string& code_line) {
  const std::size_t end = code_line.find_first_of(";={");
  if (end == std::string::npos) return "";
  std::size_t pos = end;
  while (pos > 0 &&
         (code_line[pos - 1] == ' ' || code_line[pos - 1] == '\t')) {
    --pos;
  }
  std::size_t begin = pos;
  while (begin > 0 && IsIdentChar(code_line[begin - 1])) --begin;
  if (begin == pos) return "";
  return code_line.substr(begin, pos - begin);
}

void CheckGuardedMembers(const ScannedSource& source,
                         std::vector<Finding>* findings) {
  // Heuristic companion to clang's -Wthread-safety (which only runs in
  // CI): members declared in the adjacency group after a mutex member —
  // until the first blank line or non-member line — are presumed guarded
  // by it and must say so with PODIUM_GUARDED_BY. Genuinely unguarded
  // neighbours carry a `podium-lint: allow(guarded-member)` comment.
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    if (!LineDeclaresMutexMember(source.code[i])) continue;
    for (std::size_t j = i + 1; j < source.code.size(); ++j) {
      const std::string& code_line = source.code[j];
      const std::string_view code = util::StripWhitespace(code_line);
      const std::string_view comment =
          util::StripWhitespace(source.comment[j]);
      if (code.empty() && comment.empty()) break;  // blank line ends group
      if (code.empty()) continue;                  // comment-only line
      if (util::StartsWith(code, "public") ||
          util::StartsWith(code, "protected") ||
          util::StartsWith(code, "private") ||
          util::StartsWith(code, "}")) {
        break;
      }
      if (!util::EndsWith(code, ";")) break;  // not a member declaration
      if (code_line.find("PODIUM_GUARDED_BY") != std::string::npos ||
          code_line.find("PODIUM_PT_GUARDED_BY") != std::string::npos) {
        continue;
      }
      if (LineHasExemptMemberType(code_line)) continue;
      const std::string name = DeclaredMemberName(code_line);
      if (name.empty() || name.back() != '_') continue;
      Finding finding;
      finding.line = static_cast<int>(j) + 1;
      finding.rule = "guarded-member";
      finding.message =
          "member '" + name +
          "' sits next to a mutex but has no PODIUM_GUARDED_BY "
          "annotation";
      findings->push_back(std::move(finding));
    }
    // Resume the outer scan after this mutex; nested mutexes re-trigger.
  }
}

/// The declared module DAG (DESIGN.md section 14): each module lists the
/// podium modules it may include directly. Edges not in this table are
/// layering violations — `core/` must stay servable without dragging in
/// `serve/`, and nothing below `util/` may reach up. `analysis/` sits at
/// the very bottom (no podium deps at all) so the lock-order weave in
/// util/mutex.h is itself a legal edge. No module may include
/// `telemetry/`, a forwarding header kept for the repository benchmark.
struct ModuleRule {
  std::string_view module;
  std::string_view deps;  // space-separated allowed direct dependencies
};

constexpr ModuleRule kModuleDag[] = {
    {"analysis", ""},
    {"util", "analysis"},
    {"csv", "util"},
    {"json", "util"},
    {"lint", "util"},
    {"obs", "json util"},
    {"telemetry", "obs"},
    {"profile", "csv json util"},
    {"opinion", "profile util"},
    {"taxonomy", "profile util"},
    {"bucketing", "obs util"},
    {"groups", "bucketing obs profile util"},
    {"core", "bucketing groups json obs profile taxonomy util"},
    {"baselines", "core util"},
    {"metrics", "core groups opinion util"},
    {"datagen", "obs opinion profile taxonomy util"},
    {"ingest", "datagen json obs opinion profile util"},
    {"shard", "bucketing core groups obs profile util"},
    {"serve", "core groups json obs profile shard util"},
    {"check", "core datagen json serve shard util"},
};

const ModuleRule* FindModuleRule(std::string_view module) {
  for (const ModuleRule& rule : kModuleDag) {
    if (rule.module == module) return &rule;
  }
  return nullptr;
}

/// The module that owns `path`: the directory segment directly under
/// src/podium/. Empty for everything else (tools/, tests/, bench/ sit
/// above the DAG and may depend on any module).
std::string ModuleOfPath(const std::string& path) {
  constexpr std::string_view kPrefix = "src/podium/";
  std::size_t pos = path.rfind(kPrefix);
  if (pos == std::string::npos) return "";
  pos += kPrefix.size();
  const std::size_t slash = path.find('/', pos);
  if (slash == std::string::npos) return "";
  return path.substr(pos, slash - pos);
}

/// The module an include target lives in ("podium/serve/http.h" →
/// "serve"); empty for system and non-podium includes.
std::string ModuleOfInclude(const std::string& target) {
  constexpr std::string_view kPrefix = "podium/";
  if (!util::StartsWith(target, kPrefix)) return "";
  const std::size_t slash = target.find('/', kPrefix.size());
  if (slash == std::string::npos) return "";
  return target.substr(kPrefix.size(), slash - kPrefix.size());
}

void CheckLayerViolations(const std::string& path,
                          const std::vector<Include>& includes,
                          std::vector<Finding>* findings) {
  const std::string module = ModuleOfPath(path);
  if (module.empty()) return;
  const ModuleRule* rule = FindModuleRule(module);
  if (rule == nullptr) {
    // A new directory under src/podium/ has to take a position in the
    // layering before it can ship; report once, on the first include.
    Finding finding;
    finding.line = includes.empty() ? 1 : includes.front().line;
    finding.rule = "layer-violation";
    finding.message = "module '" + module +
                      "' is not in the declared module DAG; add it to "
                      "kModuleDag in podium/lint/lint.cc (DESIGN.md "
                      "section 14)";
    findings->push_back(std::move(finding));
    return;
  }
  const std::vector<std::string> allowed = util::Split(rule->deps, ' ');
  for (const Include& include : includes) {
    if (!include.quoted) continue;
    const std::string target = ModuleOfInclude(include.target);
    if (target.empty() || target == module) continue;
    if (std::find(allowed.begin(), allowed.end(), target) != allowed.end()) {
      continue;
    }
    Finding finding;
    finding.line = include.line;
    finding.rule = "layer-violation";
    finding.message = "illegal module dependency '" + module + "' -> '" +
                      target + "': not an edge of the declared module DAG "
                      "(DESIGN.md section 14)";
    findings->push_back(std::move(finding));
  }
}

void CheckEintrRetry(const std::string& path, const ScannedSource& source,
                     std::vector<Finding>* findings) {
  // The serving path talks to sockets on every request; a bare syscall
  // there either forgets EINTR (and drops a connection when a signal
  // lands mid-recv) or re-derives the retry loop one more time. All five
  // transfer syscalls route through the checked wrappers in
  // serve/io_util.h — the one file allowed to spell them out.
  if (!PathIsUnder(path, "src/podium/serve/")) return;
  if (path.find("serve/io_util.") != std::string::npos) return;
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    const std::string& line = source.code[i];
    for (const Token& token : IdentifiersIn(line)) {
      if (token.text != "read" && token.text != "write" &&
          token.text != "recv" && token.text != "send" &&
          token.text != "accept4") {
        continue;
      }
      if (FirstNonSpaceAfter(line, token.end) != '(') continue;
      Finding finding;
      finding.line = static_cast<int>(i) + 1;
      finding.rule = "eintr-retry";
      finding.message =
          "direct " + token.text +
          "() in serve/; use the checked retry wrappers in "
          "podium/serve/io_util.h";
      findings->push_back(std::move(finding));
    }
  }
}

void CheckUnnamedMutex(const ScannedSource& source,
                       const std::vector<std::string>& original_lines,
                       std::vector<Finding>* findings) {
  // Every util::Mutex carries a stable lock-class name (DESIGN.md
  // section 14); an unnamed one is a blind spot in the runtime lock-order
  // detector. Arrays are exempt — their elements deliberately share the
  // defaulted name. The name is a string literal, which Scan() blanks out
  // of the code channel, so "named" is read off the original line.
  for (std::size_t i = 0; i < source.code.size(); ++i) {
    const std::string& line = source.code[i];
    const std::string_view stripped = util::StripWhitespace(line);
    if (!util::EndsWith(stripped, ";")) continue;
    if (stripped.find('(') != std::string_view::npos) continue;
    if (stripped.find('[') != std::string_view::npos) continue;
    const std::vector<Token> tokens = IdentifiersIn(line);
    bool declares = false;
    for (const Token& token : tokens) {
      if (token.text != "Mutex") continue;
      // `Mutex* held;` / `Mutex& ref;` alias an existing named instance.
      const char after = FirstNonSpaceAfter(line, token.end);
      if (after == '*' || after == '&') continue;
      declares = true;
      break;
    }
    if (!declares) continue;
    // `using`/`typedef` lines mention the type without creating one.
    if (!tokens.empty() &&
        (tokens[0].text == "using" || tokens[0].text == "typedef")) {
      continue;
    }
    if (i < original_lines.size() &&
        original_lines[i].find('"') != std::string::npos) {
      continue;  // named
    }
    Finding finding;
    finding.line = static_cast<int>(i) + 1;
    finding.rule = "unnamed-mutex";
    finding.message =
        "util::Mutex without a lock-class name; declare it as "
        "Mutex m_{\"module.role\"} so the lock-order detector can see it";
    findings->push_back(std::move(finding));
  }
}

}  // namespace

std::string FormatFinding(const Finding& finding) {
  return util::StringPrintf("%s:%d: %s: %s", finding.file.c_str(),
                            finding.line, finding.rule.c_str(),
                            finding.message.c_str());
}

std::vector<Finding> LintSource(std::string_view path,
                                std::string_view content) {
  const std::string normalized = NormalizePath(path);
  const ScannedSource source = Scan(content);
  const std::vector<std::string> original_lines = SplitLines(content);
  const std::vector<Include> includes =
      ExtractIncludes(source, original_lines);
  const std::map<int, std::set<std::string>> allowed =
      ParseSuppressions(source);

  std::vector<Finding> findings;
  CheckBannedFunctions(source, &findings);
  CheckIncludeOrder(normalized, includes, &findings);
  CheckTestInternalIncludes(normalized, includes, &findings);
  CheckTodoOwner(source, &findings);
  CheckRawNewDelete(normalized, source, &findings);
  CheckRawStderr(normalized, source, &findings);
  CheckIntrinsicsScope(normalized, source, includes, &findings);
  CheckGuardedMembers(source, &findings);
  CheckLayerViolations(normalized, includes, &findings);
  CheckEintrRetry(normalized, source, &findings);
  CheckUnnamedMutex(source, original_lines, &findings);

  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    if (IsSuppressed(allowed, finding.line, finding.rule)) continue;
    finding.file = std::string(path);
    kept.push_back(std::move(finding));
  }
  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return kept;
}

Result<std::vector<Finding>> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("error reading file: " + path);
  return LintSource(path, buffer.str());
}

Result<std::vector<Finding>> LintTree(const std::vector<std::string>& roots,
                                      const LintOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      return Status::IoError("no such file or directory: " + root);
    }
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string extension = it->path().extension().string();
      if (extension != ".h" && extension != ".cc") continue;
      paths.push_back(it->path().generic_string());
    }
    if (ec) return Status::IoError("error walking " + root + ": " +
                                   ec.message());
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<Finding> findings;
  for (const std::string& path : paths) {
    const std::string normalized = NormalizePath(path);
    bool excluded = false;
    for (const std::string& substring : options.exclude_substrings) {
      if (normalized.find(substring) != std::string::npos) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    Result<std::vector<Finding>> file_findings = LintFile(path);
    if (!file_findings.ok()) return file_findings.status();
    for (Finding& finding : file_findings.value()) {
      findings.push_back(std::move(finding));
    }
  }
  return findings;
}

}  // namespace podium::lint
