#include "podium/profile/repository.h"

#include "podium/util/string_util.h"

namespace podium {

ProfileRepository ProfileRepository::Clone() const {
  ProfileRepository copy;
  copy.properties_ = properties_;
  copy.users_ = users_;
  copy.user_index_ = user_index_;
  return copy;
}

Result<UserId> ProfileRepository::AddUser(std::string name) {
  if (user_index_.contains(name)) {
    return Status::AlreadyExists("duplicate user name: " + name);
  }
  const auto id = static_cast<UserId>(users_.size());
  user_index_.emplace(name, id);
  users_.emplace_back(std::move(name));
  return id;
}

UserId ProfileRepository::FindUser(std::string_view name) const {
  auto it = user_index_.find(name);
  return it == user_index_.end() ? kInvalidUser : it->second;
}

Status ProfileRepository::CheckScore(UserId user, PropertyId property,
                                     double score) const {
  if (user >= users_.size()) {
    return Status::OutOfRange(util::StringPrintf("user id %u out of range",
                                                 user));
  }
  if (property >= properties_.size()) {
    return Status::OutOfRange(
        util::StringPrintf("property id %u out of range", property));
  }
  if (!(score >= 0.0 && score <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument(util::StringPrintf(
        "score %f for property '%s' outside [0, 1]", score,
        properties_.Label(property).c_str()));
  }
  return Status::Ok();
}

Status ProfileRepository::SetScore(UserId user, PropertyId property,
                                   double score) {
  PODIUM_RETURN_IF_ERROR(CheckScore(user, property, score));
  users_[user].Set(property, score);
  return Status::Ok();
}

Status ProfileRepository::SetScores(UserId user,
                                    std::vector<PropertyScore> entries) {
  for (const PropertyScore& entry : entries) {
    PODIUM_RETURN_IF_ERROR(CheckScore(user, entry.property, entry.score));
  }
  users_[user].ReplaceEntries(std::move(entries));
  return Status::Ok();
}

Status ProfileRepository::SetScore(UserId user, std::string_view label,
                                   double score, PropertyKind kind) {
  return SetScore(user, properties_.Intern(label, kind), score);
}

std::size_t ProfileRepository::SupportCount(PropertyId property) const {
  std::size_t count = 0;
  for (const UserProfile& profile : users_) {
    if (profile.Has(property)) ++count;
  }
  return count;
}

double ProfileRepository::MeanProfileSize() const {
  if (users_.empty()) return 0.0;
  std::size_t total = 0;
  for (const UserProfile& profile : users_) total += profile.size();
  return static_cast<double>(total) / static_cast<double>(users_.size());
}

}  // namespace podium
