#ifndef PODIUM_SERVE_REQUEST_H_
#define PODIUM_SERVE_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "podium/core/customization.h"
#include "podium/core/greedy.h"
#include "podium/groups/coverage.h"
#include "podium/groups/weight.h"
#include "podium/json/value.h"
#include "podium/serve/snapshot.h"
#include "podium/util/result.h"

namespace podium::serve {

/// One client's selection request: the per-client customization layer of
/// Section 7 (weights, coverage, budget, and the 𝒢₊/𝒢₋/𝒢_d feedback of
/// Def. 6.1 expressed as group labels) over the shared snapshot.
///
/// JSON shape (every field optional; absent fields take snapshot/server
/// defaults):
///
///   {"budget": 8, "selector": "greedy",
///    "weights": "Iden" | "LBS" | "EBS", "coverage": "Single" | "Prop",
///    "must_have": ["livesIn Tokyo"], "must_not": [], "priority": [],
///    "explain": true, "deadline_ms": 2000}
struct SelectionRequest {
  /// 0 means "use the snapshot's default budget".
  std::size_t budget = 0;
  GreedyMode mode = GreedyMode::kPlainScan;
  std::optional<WeightKind> weight_kind;
  std::optional<CoverageKind> coverage_kind;
  std::vector<std::string> must_have;
  std::vector<std::string> must_not;
  std::vector<std::string> priority;
  /// Include per-user group explanations in the response.
  bool explain = false;
  /// Per-request deadline override in milliseconds; 0 means the server
  /// default. The deadline covers admission queueing (see DESIGN.md §8).
  std::int64_t deadline_ms = 0;

  bool customized() const {
    return !must_have.empty() || !must_not.empty() || !priority.empty();
  }
};

/// The one selector wire name; replies echo it as "selector".
inline constexpr std::string_view kSelectorName = "greedy";
/// OK for kSelectorName; any other name is InvalidArgument naming it.
[[nodiscard]] Status ParseSelectorName(std::string_view name);

/// Parses a request document, rejecting unknown keys (typos in client
/// requests fail loudly rather than silently taking defaults).
[[nodiscard]] Result<SelectionRequest> SelectionRequestFromJson(const json::Value& document);

/// Canonical cache key: the snapshot generation plus a compact canonical
/// serialization of every result-affecting field (deadline_ms excluded —
/// it changes admission, never the payload). Two requests map to the same
/// key iff their responses are byte-identical under one snapshot.
std::string CanonicalRequestKey(std::uint64_t generation,
                                const SelectionRequest& request);

/// The outcome of a selection: the chosen users with scores and optional
/// explanations, plus the effective configuration the request resolved to
/// (so clients can verify the round trip exactly).
struct SelectionOutcome {
  std::uint64_t snapshot_generation = 0;
  /// The effective (post-default) configuration.
  std::size_t budget = 0;
  GreedyMode mode = GreedyMode::kPlainScan;
  WeightKind weight_kind = WeightKind::kLbs;
  CoverageKind coverage_kind = CoverageKind::kSingle;
  SelectionRequest request;  // echo of label lists / explain

  std::vector<UserId> users;
  std::vector<std::string> names;
  double score = 0.0;
  /// Engaged when the request carried customization feedback.
  std::optional<DualScore> custom_score;
  std::size_t refined_pool_size = 0;

  /// Per-user explanation blocks when request.explain; shaped like the
  /// CLI's --json output (label, weight, cov per group).
  json::Value explanations;  // array or null
};

/// Serializes an outcome as the deterministic response body: fixed key
/// order, no timing fields (timings travel in HTTP headers so cached
/// responses stay byte-identical).
std::string SerializeOutcome(const SelectionOutcome& outcome);

}  // namespace podium::serve

#endif  // PODIUM_SERVE_REQUEST_H_
