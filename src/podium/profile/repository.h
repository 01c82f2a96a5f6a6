#ifndef PODIUM_PROFILE_REPOSITORY_H_
#define PODIUM_PROFILE_REPOSITORY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "podium/profile/property.h"
#include "podium/profile/user_profile.h"
#include "podium/util/result.h"
#include "podium/util/string_util.h"

namespace podium {

/// The user population U together with its property vocabulary P: the
/// central data object every other Podium module consumes.
///
/// Users and properties are addressed by dense ids; labels/names remain
/// available for explanations and I/O.
class ProfileRepository {
 public:
  ProfileRepository() = default;

  // Movable but not copyable: repositories are large; copy explicitly via
  // Clone() when a test really needs an independent instance.
  ProfileRepository(const ProfileRepository&) = delete;
  ProfileRepository& operator=(const ProfileRepository&) = delete;
  ProfileRepository(ProfileRepository&&) = default;
  ProfileRepository& operator=(ProfileRepository&&) = default;

  /// Deep copy.
  ProfileRepository Clone() const;

  /// Adds a user with a unique display name; returns the new id.
  /// Duplicate names get an error.
  Result<UserId> AddUser(std::string name);

  /// Id of the user named `name`, or kInvalidUser. Builds no string.
  UserId FindUser(std::string_view name) const;

  std::size_t user_count() const { return users_.size(); }
  const UserProfile& user(UserId id) const { return users_[id]; }
  UserProfile& mutable_user(UserId id) { return users_[id]; }

  PropertyTable& properties() { return properties_; }
  const PropertyTable& properties() const { return properties_; }
  std::size_t property_count() const { return properties_.size(); }

  /// Sets S_u(p) = score. Fails if the score is outside [0, 1] or the ids
  /// are out of range.
  Status SetScore(UserId user, PropertyId property, double score);

  /// Convenience: interns `label` (with `kind` if new) and sets the score.
  Status SetScore(UserId user, std::string_view label, double score,
                  PropertyKind kind = PropertyKind::kScore);

  /// Replaces the profile of `user` with `entries` in one step (any order;
  /// a repeated property keeps its last score). Checks every entry as
  /// SetScore does, in order, and changes nothing on failure.
  Status SetScores(UserId user, std::vector<PropertyScore> entries);

  /// |p| — the number of users whose profile contains `property`.
  std::size_t SupportCount(PropertyId property) const;

  /// Average |P_u| across users (0 for an empty repository).
  double MeanProfileSize() const;

 private:
  Status CheckScore(UserId user, PropertyId property, double score) const;

  PropertyTable properties_;
  std::vector<UserProfile> users_;
  std::unordered_map<std::string, UserId, util::StringHash, std::equal_to<>>
      user_index_;
};

}  // namespace podium

#endif  // PODIUM_PROFILE_REPOSITORY_H_
