#ifndef PODIUM_PROFILE_REPOSITORY_IO_H_
#define PODIUM_PROFILE_REPOSITORY_IO_H_

#include <string>
#include <string_view>

#include "podium/json/value.h"
#include "podium/profile/repository.h"
#include "podium/util/result.h"

namespace podium {

/// JSON exchange format (the prototype's input format, Section 7):
///
///   {
///     "users": [
///       {"name": "Alice",
///        "properties": {"livesIn Tokyo": 1, "avgRating Mexican": 0.95}},
///       ...
///     ],
///     "kinds": {"livesIn Tokyo": "boolean"}   // optional; default "score"
///   }
json::Value RepositoryToJson(const ProfileRepository& repository);

/// Reads the exchange format in one pass straight into a repository, with
/// no json::Value tree. Exactly what building the tree with json::Parse
/// and reading it would give (check::RepositoryFromJson is that reader,
/// kept as the reference):
///  - property ids: the labels in "kinds" first, in "kinds" order, even
///    when "kinds" follows "users"; every other label after them in order
///    of first appearance;
///  - a label missing from "kinds" is boolean iff its first occurrence
///    holds a bool;
///  - a repeated key keeps its first position and takes its last value
///    (json::Object::Set), at every level;
///  - errors: any syntax error (json::Parse's message and line:column)
///    before any semantic one; then a non-object root, "kinds" errors, a
///    missing "users" array, and each user's errors in document order.
Result<ProfileRepository> ParseRepositoryJson(std::string_view text);

Status SaveRepositoryJson(const ProfileRepository& repository,
                          const std::string& path);

/// Reads the file at `path` (one exact-size read) and parses it with
/// ParseRepositoryJson.
Result<ProfileRepository> LoadRepositoryJson(const std::string& path);

/// Long-form CSV exchange format, one observation per row:
///
///   user,property,score,kind
///   Alice,livesIn Tokyo,1,boolean
///   Alice,avgRating Mexican,0.95,score
///
/// The kind column is optional on input (defaults to "score").
Status SaveRepositoryCsv(const ProfileRepository& repository,
                         const std::string& path);
Result<ProfileRepository> LoadRepositoryCsv(const std::string& path);

}  // namespace podium

#endif  // PODIUM_PROFILE_REPOSITORY_IO_H_
