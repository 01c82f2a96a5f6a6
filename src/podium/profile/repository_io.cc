#include "podium/profile/repository_io.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "podium/csv/csv.h"
#include "podium/json/lexer.h"
#include "podium/json/writer.h"
#include "podium/util/file.h"
#include "podium/util/string_util.h"

namespace podium {

namespace {

Result<double> ParseScoreField(const std::string& field) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (errno == ERANGE || end != field.c_str() + field.size() ||
      field.empty()) {
    return Status::ParseError("invalid score: '" + field + "'");
  }
  return value;
}

/// One pass of json::Lexer over the exchange format, straight into a
/// ProfileRepository. Syntax errors return at once. A semantic error is
/// kept (users_error_, kinds_error_) while the rest of the document is
/// still checked for syntax, and reported only once it all parses, in the
/// order a reader of the whole tree would meet it.
///
/// json::Object::Set keeps a repeated key's first position and last value.
/// For "users", "kinds", "name" and "properties" the last value simply
/// replaces what the earlier ones built. A user's members are buffered
/// until the user ends (its "name" may follow its "properties"), and its
/// property labels are deduplicated before any is checked or sets a kind.
class RepositoryReader {
 public:
  explicit RepositoryReader(std::string_view text) : lexer_(text) {}

  Result<ProfileRepository> Read() {
    PODIUM_RETURN_IF_ERROR(lexer_.BeginDocument());
    PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(0));
    if (lexer_.Peek() != '{') {
      PODIUM_RETURN_IF_ERROR(lexer_.SkipValue(0));
      PODIUM_RETURN_IF_ERROR(lexer_.EndDocument());
      return Status::ParseError("repository document must be a JSON object");
    }
    for (bool first = true;; first = false) {
      PODIUM_ASSIGN_OR_RETURN(const bool more, lexer_.NextMember(first, key_));
      if (!more) break;
      PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(1));
      if (key_ == "users") {
        PODIUM_RETURN_IF_ERROR(ReadUsers());
      } else if (key_ == "kinds") {
        PODIUM_RETURN_IF_ERROR(ReadKinds());
      } else {
        PODIUM_RETURN_IF_ERROR(lexer_.SkipValue(1));
      }
    }
    PODIUM_RETURN_IF_ERROR(lexer_.EndDocument());
    if (!kinds_error_.ok()) return kinds_error_;
    if (!has_users_) {
      return Status::ParseError(
          "repository document must have a 'users' array");
    }
    if (!users_error_.ok()) return users_error_;
    PutKindsFirst();
    return std::move(repository_);
  }

 private:
  /// A property as read, before deduplication: its label is
  /// labels_[offset, offset + length).
  struct RawScore {
    std::size_t offset;
    std::size_t length;
    json::Type type;
    double score;
  };

  /// A property after deduplication: the first position, the last value.
  struct DedupedScore {
    PropertyId property;
    bool fresh;  // interned by this user
    json::Type type;
    double score;
  };

  Status ReadKinds() {
    kinds_ = PropertyTable();
    kinds_error_ = Status::Ok();
    if (lexer_.Peek() != '{') {
      kinds_error_ = Status::ParseError("'kinds' must be an object");
      return lexer_.SkipValue(1);
    }
    std::vector<json::Scalar> values;  // per label in kinds_, its last value
    for (bool first = true;; first = false) {
      PODIUM_ASSIGN_OR_RETURN(const bool more, lexer_.NextMember(first, key_));
      if (!more) break;
      PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(2));
      const PropertyId label = kinds_.Intern(key_);
      if (label == values.size()) values.emplace_back();
      PODIUM_RETURN_IF_ERROR(ReadValue(2, values[label]));
    }
    for (PropertyId label = 0; label < values.size(); ++label) {
      if (values[label].type != json::Type::kString) {
        kinds_error_ = Status::ParseError(
            "expected string, found " +
            std::string(json::TypeName(values[label].type)));
        break;
      }
      Result<PropertyKind> kind = ParsePropertyKind(values[label].string);
      if (!kind.ok()) {
        kinds_error_ = kind.status();
        break;
      }
      kinds_.SetKind(label, kind.value());
    }
    return Status::Ok();
  }

  Status ReadUsers() {
    repository_ = ProfileRepository();
    users_error_ = Status::Ok();
    stamp_.clear();
    slot_.clear();
    has_users_ = lexer_.Peek() == '[';
    if (!has_users_) return lexer_.SkipValue(1);
    for (bool first = true;; first = false) {
      PODIUM_ASSIGN_OR_RETURN(const bool more, lexer_.NextElement(first));
      if (!more) return Status::Ok();
      PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(2));
      if (!users_error_.ok()) {
        PODIUM_RETURN_IF_ERROR(lexer_.SkipValue(2));
      } else {
        PODIUM_RETURN_IF_ERROR(ReadUser());
      }
    }
  }

  Status ReadUser() {
    if (lexer_.Peek() != '{') {
      users_error_ = Status::ParseError("each user must be a JSON object");
      return lexer_.SkipValue(2);
    }
    bool has_name = false;        // the last "name" is a string
    bool has_properties = false;  // there is a "properties"
    bool properties_ok = false;   // and the last one is an object
    for (bool first = true;; first = false) {
      PODIUM_ASSIGN_OR_RETURN(const bool more, lexer_.NextMember(first, key_));
      if (!more) break;
      PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(3));
      if (key_ == "name") {
        has_name = lexer_.Peek() == '"';
        name_.clear();
        PODIUM_RETURN_IF_ERROR(has_name ? lexer_.ReadString(name_)
                                        : lexer_.SkipValue(3));
      } else if (key_ == "properties") {
        has_properties = true;
        properties_ok = lexer_.Peek() == '{';
        PODIUM_RETURN_IF_ERROR(properties_ok ? ReadProperties()
                                             : lexer_.SkipValue(3));
      } else {
        PODIUM_RETURN_IF_ERROR(lexer_.SkipValue(3));
      }
    }
    if (!has_name) {
      users_error_ = Status::ParseError("each user must have a string 'name'");
      return Status::Ok();
    }
    Result<UserId> user = repository_.AddUser(name_);
    if (!user.ok()) {
      users_error_ = user.status();
    } else if (has_properties && !properties_ok) {
      users_error_ = Status::ParseError(
          "'properties' must be an object for user " + name_);
    } else if (has_properties) {
      users_error_ = SetProperties(user.value());
    }
    return Status::Ok();
  }

  Status ReadProperties() {
    raw_.clear();
    labels_.clear();
    for (bool first = true;; first = false) {
      PODIUM_ASSIGN_OR_RETURN(const bool more, lexer_.NextMember(first, key_));
      if (!more) return Status::Ok();
      PODIUM_RETURN_IF_ERROR(lexer_.BeginValue(4));
      PODIUM_RETURN_IF_ERROR(ReadValue(4, scalar_));
      double score = scalar_.number;
      if (scalar_.type == json::Type::kBool) {
        score = scalar_.boolean ? 1.0 : 0.0;
      }
      raw_.push_back({labels_.size(), key_.size(), scalar_.type, score});
      labels_ += key_;
    }
  }

  /// Reads a scalar into `out`, or skips a container and records its type.
  Status ReadValue(int depth, json::Scalar& out) {
    const char opener = lexer_.Peek();
    if (opener != '{' && opener != '[') return lexer_.ReadScalar(out);
    out.type = opener == '{' ? json::Type::kObject : json::Type::kArray;
    return lexer_.SkipValue(depth);
  }

  /// Deduplicates the buffered properties, then checks and sets them in
  /// order. The first failure is the user's error.
  Status SetProperties(UserId user) {
    PropertyTable& table = repository_.properties();
    const std::size_t known = table.size();
    ++user_stamp_;
    deduped_.clear();
    for (const RawScore& raw : raw_) {
      const PropertyId property = table.Intern(
          std::string_view(labels_).substr(raw.offset, raw.length));
      if (property >= stamp_.size()) {
        stamp_.resize(property + 1, 0);
        slot_.resize(property + 1, 0);
      }
      if (stamp_[property] == user_stamp_) {
        DedupedScore& kept = deduped_[slot_[property]];
        kept.type = raw.type;
        kept.score = raw.score;
        continue;
      }
      stamp_[property] = user_stamp_;
      slot_[property] = static_cast<std::uint32_t>(deduped_.size());
      deduped_.push_back({property, property >= known, raw.type, raw.score});
    }
    std::vector<PropertyScore> entries;
    entries.reserve(deduped_.size());
    Status type_error;
    for (const DedupedScore& score : deduped_) {
      if (score.type == json::Type::kBool) {
        if (score.fresh) table.SetKind(score.property, PropertyKind::kBoolean);
      } else if (score.type != json::Type::kNumber) {
        type_error = Status::ParseError("score of '" +
                                        table.Label(score.property) +
                                        "' must be a number or bool");
        break;
      }
      entries.push_back({score.property, score.score});
    }
    // A range error before the first type error comes first.
    PODIUM_RETURN_IF_ERROR(repository_.SetScores(user, std::move(entries)));
    return type_error;
  }

  /// Renumbers the properties so the "kinds" labels come first, in kinds
  /// order and with their declared kinds; the rest keep their order.
  void PutKindsFirst() {
    if (kinds_.size() == 0) return;
    PropertyTable& table = repository_.properties();
    std::vector<PropertyId> renumbered(table.size());
    bool moved = false;
    for (PropertyId p = 0; p < table.size(); ++p) {
      renumbered[p] = kinds_.Intern(table.Label(p), table.Kind(p));
      moved = moved || renumbered[p] != p;
    }
    table = std::move(kinds_);
    if (!moved) return;
    for (UserId u = 0; u < repository_.user_count(); ++u) {
      std::vector<PropertyScore> entries = repository_.user(u).entries();
      for (PropertyScore& entry : entries) {
        entry.property = renumbered[entry.property];
      }
      repository_.mutable_user(u).ReplaceEntries(std::move(entries));
    }
  }

  json::Lexer lexer_;
  ProfileRepository repository_;
  bool has_users_ = false;  // the last "users" is an array
  Status users_error_;
  PropertyTable kinds_;  // the last "kinds", once it checks out
  Status kinds_error_;

  // Scratch reused across users.
  std::string key_;
  std::string name_;
  json::Scalar scalar_;
  std::string labels_;
  std::vector<RawScore> raw_;
  std::vector<DedupedScore> deduped_;
  std::vector<std::uint32_t> stamp_;  // per property: last user_stamp_ seen
  std::vector<std::uint32_t> slot_;   // per property: its index in deduped_
  std::uint32_t user_stamp_ = 0;
};

}  // namespace

json::Value RepositoryToJson(const ProfileRepository& repository) {

  json::Object root;

  json::Array users;
  users.reserve(repository.user_count());
  const PropertyTable& table = repository.properties();
  for (UserId u = 0; u < repository.user_count(); ++u) {
    const UserProfile& profile = repository.user(u);
    json::Object user;
    user.Set("name", json::Value(profile.name()));
    json::Object props;
    for (const PropertyScore& entry : profile.entries()) {
      props.Set(table.Label(entry.property), json::Value(entry.score));
    }
    user.Set("properties", json::Value(std::move(props)));
    users.emplace_back(std::move(user));
  }
  root.Set("users", json::Value(std::move(users)));

  json::Object kinds;
  for (PropertyId p = 0; p < table.size(); ++p) {
    if (table.Kind(p) == PropertyKind::kBoolean) {
      kinds.Set(table.Label(p), json::Value("boolean"));
    }
  }
  if (!kinds.empty()) root.Set("kinds", json::Value(std::move(kinds)));
  return json::Value(std::move(root));
}

Status SaveRepositoryJson(const ProfileRepository& repository,
                          const std::string& path) {
  json::WriteOptions options;
  options.indent = 2;
  return json::WriteFile(RepositoryToJson(repository), path, options);
}

Result<ProfileRepository> ParseRepositoryJson(std::string_view text) {
  return RepositoryReader(text).Read();
}

Result<ProfileRepository> LoadRepositoryJson(const std::string& path) {
  Result<std::string> text = util::ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseRepositoryJson(text.value());
}

Status SaveRepositoryCsv(const ProfileRepository& repository,
                         const std::string& path) {
  csv::Table table;
  table.header = {"user", "property", "score", "kind"};
  const PropertyTable& props = repository.properties();
  for (UserId u = 0; u < repository.user_count(); ++u) {
    const UserProfile& profile = repository.user(u);
    for (const PropertyScore& entry : profile.entries()) {
      table.rows.push_back(
          {profile.name(), props.Label(entry.property),
           util::FormatDouble(entry.score, 10),
           std::string(PropertyKindName(props.Kind(entry.property)))});
    }
  }
  return csv::WriteFile(table, path);
}

Result<ProfileRepository> LoadRepositoryCsv(const std::string& path) {
  Result<csv::Table> table = csv::ParseFile(path);
  if (!table.ok()) return table.status();

  const int user_col = table->ColumnIndex("user");
  const int property_col = table->ColumnIndex("property");
  const int score_col = table->ColumnIndex("score");
  const int kind_col = table->ColumnIndex("kind");  // optional
  if (user_col < 0 || property_col < 0 || score_col < 0) {
    return Status::ParseError(
        "CSV must have 'user', 'property' and 'score' columns");
  }

  ProfileRepository repository;
  for (const csv::Row& row : table->rows) {
    const std::string& name = row[static_cast<std::size_t>(user_col)];
    UserId id = repository.FindUser(name);
    if (id == kInvalidUser) {
      Result<UserId> added = repository.AddUser(name);
      if (!added.ok()) return added.status();
      id = added.value();
    }
    Result<double> score =
        ParseScoreField(row[static_cast<std::size_t>(score_col)]);
    if (!score.ok()) return score.status();
    PropertyKind kind = PropertyKind::kScore;
    if (kind_col >= 0) {
      Result<PropertyKind> parsed =
          ParsePropertyKind(row[static_cast<std::size_t>(kind_col)]);
      if (!parsed.ok()) return parsed.status();
      kind = parsed.value();
    }
    PODIUM_RETURN_IF_ERROR(repository.SetScore(
        id, row[static_cast<std::size_t>(property_col)], score.value(), kind));
  }
  return repository;
}

}  // namespace podium
