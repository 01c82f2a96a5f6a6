#include "podium/profile/property.h"

namespace podium {

std::string_view PropertyKindName(PropertyKind kind) {
  switch (kind) {
    case PropertyKind::kBoolean:
      return "boolean";
    case PropertyKind::kScore:
      return "score";
  }
  return "unknown";
}

Result<PropertyKind> ParsePropertyKind(std::string_view text) {
  if (text == "boolean") return PropertyKind::kBoolean;
  if (text == "score" || text.empty()) return PropertyKind::kScore;
  return Status::ParseError("unknown property kind: " + std::string(text));
}

PropertyId PropertyTable::Intern(std::string_view label, PropertyKind kind) {
  auto it = index_.find(label);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<PropertyId>(labels_.size());
  labels_.emplace_back(label);
  kinds_.push_back(kind);
  index_.emplace(labels_.back(), id);
  return id;
}

PropertyId PropertyTable::Find(std::string_view label) const {
  auto it = index_.find(label);
  return it == index_.end() ? kInvalidProperty : it->second;
}

}  // namespace podium
