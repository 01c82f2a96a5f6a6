#include "podium/groups/coverage.h"

#include <algorithm>

#include "podium/obs/metrics.h"

namespace podium {

std::string_view CoverageKindName(CoverageKind kind) {
  switch (kind) {
    case CoverageKind::kSingle:
      return "Single";
    case CoverageKind::kProp:
      return "Prop";
  }
  return "unknown";
}

Result<CoverageKind> ParseCoverageKind(std::string_view name) {
  if (name == "Single" || name == "single") return CoverageKind::kSingle;
  if (name == "Prop" || name == "prop") return CoverageKind::kProp;
  return Status::InvalidArgument("unknown coverage kind: " +
                                 std::string(name));
}

std::vector<std::uint32_t> ComputeCoverage(const GroupIndex& index,
                                           CoverageKind kind,
                                           std::size_t budget,
                                           std::size_t population) {
  std::vector<std::uint32_t> sizes(index.group_count());
  for (GroupId g = 0; g < sizes.size(); ++g) {
    sizes[g] = static_cast<std::uint32_t>(index.group_size(g));
  }
  return ComputeCoverage(sizes, kind, budget, population);
}

std::vector<std::uint32_t> ComputeCoverage(std::span<const std::uint32_t> sizes,
                                           CoverageKind kind,
                                           std::size_t budget,
                                           std::size_t population) {
  std::vector<std::uint32_t> coverage(sizes.size(), 1);
  if (kind == CoverageKind::kProp && population > 0) {
    for (GroupId g = 0; g < sizes.size(); ++g) {
      const std::size_t proportional = budget * sizes[g] / population;
      coverage[g] =
          static_cast<std::uint32_t>(std::max<std::size_t>(proportional, 1));
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("coverage.computations").Add();
  std::uint64_t total = 0;
  for (std::uint32_t c : coverage) total += c;
  registry.gauge("coverage.total_required").Set(static_cast<double>(total));
  return coverage;
}

}  // namespace podium
