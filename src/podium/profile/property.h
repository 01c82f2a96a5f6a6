#ifndef PODIUM_PROFILE_PROPERTY_H_
#define PODIUM_PROFILE_PROPERTY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "podium/util/result.h"
#include "podium/util/string_util.h"

namespace podium {

/// Dense identifier for an interned property label.
using PropertyId = std::uint32_t;
inline constexpr PropertyId kInvalidProperty = 0xFFFFFFFFu;

/// How a property's [0, 1] score is to be interpreted. This drives
/// bucketing (boolean properties get the trivial [1,1] bucket plus [0,0])
/// and explanation labels.
enum class PropertyKind : std::uint8_t {
  kBoolean,  // score is 0 (false) or 1 (true), e.g. "livesIn Tokyo"
  kScore,    // continuous in [0, 1], e.g. "avgRating Mexican"
};

std::string_view PropertyKindName(PropertyKind kind);

/// The kind named `text`: "boolean", or "score" (also for ""). Anything
/// else is a ParseError.
Result<PropertyKind> ParsePropertyKind(std::string_view text);

/// Interning table mapping human-readable property labels ("avgRating
/// Mexican") to dense PropertyIds and carrying per-property metadata.
///
/// Labels are the unit of explanation in Podium (Section 5 of the paper),
/// so they are kept verbatim and human-readable.
class PropertyTable {
 public:
  PropertyTable() = default;

  /// Returns the id for `label`, interning it with `kind` if new. If the
  /// label already exists its kind is left unchanged. A lookup builds no
  /// string; only a new label is copied.
  PropertyId Intern(std::string_view label,
                    PropertyKind kind = PropertyKind::kScore);

  /// Returns the id for `label` or kInvalidProperty if never interned.
  PropertyId Find(std::string_view label) const;

  const std::string& Label(PropertyId id) const { return labels_[id]; }
  PropertyKind Kind(PropertyId id) const { return kinds_[id]; }
  void SetKind(PropertyId id, PropertyKind kind) { kinds_[id] = kind; }

  std::size_t size() const { return labels_.size(); }

 private:
  std::vector<std::string> labels_;
  std::vector<PropertyKind> kinds_;
  std::unordered_map<std::string, PropertyId, util::StringHash,
                     std::equal_to<>>
      index_;
};

}  // namespace podium

#endif  // PODIUM_PROFILE_PROPERTY_H_
