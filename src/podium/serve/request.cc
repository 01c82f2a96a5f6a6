#include "podium/serve/request.h"

#include <cmath>
#include <string_view>
#include <utility>

#include "podium/core/explanation.h"
#include "podium/json/writer.h"
#include "podium/util/string_util.h"

namespace podium::serve {

namespace {

Result<std::vector<std::string>> StringList(const json::Value& value,
                                            const char* key) {
  if (!value.is_array()) {
    return Status::ParseError(std::string("'") + key +
                              "' must be an array of strings");
  }
  std::vector<std::string> out;
  out.reserve(value.AsArray().size());
  for (const json::Value& entry : value.AsArray()) {
    Result<std::string> text = entry.GetString();
    if (!text.ok()) return text.status();
    out.push_back(std::move(text).value());
  }
  return out;
}

Result<std::size_t> NonNegativeInt(const json::Value& value, const char* key,
                                   std::size_t min) {
  Result<double> number = value.GetNumber();
  if (!number.ok()) return number.status();
  const double n = number.value();
  if (!(n >= static_cast<double>(min)) || n != std::floor(n) || n > 1e15) {
    return Status::ParseError(util::StringPrintf(
        "'%s' must be an integer >= %zu", key, min));
  }
  return static_cast<std::size_t>(n);
}

void AppendLabels(const std::vector<std::string>& labels, std::string& out) {
  out.push_back('[');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    json::AppendEscaped(labels[i], out);
  }
  out.push_back(']');
}

/// The reply up to its explanations: "{" through the users array, in the
/// fixed key order, without the closing brace.
std::string ReplyHead(const SelectionOutcome& outcome) {
  std::string out = "{\"snapshot_generation\":";
  json::AppendNumber(static_cast<double>(outcome.snapshot_generation), out);
  out += ",\"budget\":";
  json::AppendNumber(static_cast<double>(outcome.budget), out);
  out += ",\"selector\":";
  json::AppendEscaped(kSelectorName, out);
  out += ",\"weights\":";
  json::AppendEscaped(WeightKindName(outcome.weight_kind), out);
  out += ",\"coverage\":";
  json::AppendEscaped(CoverageKindName(outcome.coverage_kind), out);
  out += ",\"must_have\":";
  AppendLabels(outcome.request.must_have, out);
  out += ",\"must_not\":";
  AppendLabels(outcome.request.must_not, out);
  out += ",\"priority\":";
  AppendLabels(outcome.request.priority, out);
  out += ",\"score\":";
  json::AppendNumber(outcome.score, out);
  if (outcome.custom_score.has_value()) {
    out += ",\"custom\":{\"priority_score\":";
    json::AppendNumber(outcome.custom_score->priority, out);
    out += ",\"standard_score\":";
    json::AppendNumber(outcome.custom_score->standard, out);
    out += ",\"refined_pool\":";
    json::AppendNumber(static_cast<double>(outcome.refined_pool_size), out);
    out.push_back('}');
  }
  out += ",\"users\":[";
  for (std::size_t i = 0; i < outcome.users.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"id\":";
    json::AppendNumber(static_cast<double>(outcome.users[i]), out);
    out += ",\"name\":";
    json::AppendEscaped(outcome.names[i], out);
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

}  // namespace

Status ParseSelectorName(std::string_view name) {
  if (name == kSelectorName) return Status::Ok();
  return Status::InvalidArgument("unknown selector '" + std::string(name) +
                                 "' (the only selector is \"" +
                                 std::string(kSelectorName) + "\")");
}

Result<SelectionRequest> SelectionRequestFromJson(
    const json::Value& document) {
  if (!document.is_object()) {
    return Status::ParseError("selection request must be a JSON object");
  }
  SelectionRequest request;
  for (const auto& [key, value] : document.AsObject().entries()) {
    if (key == "budget") {
      PODIUM_ASSIGN_OR_RETURN(request.budget,
                              NonNegativeInt(value, "budget", 1));
    } else if (key == "selector") {
      Result<std::string> name = value.GetString();
      if (!name.ok()) return name.status();
      PODIUM_RETURN_IF_ERROR(ParseSelectorName(name.value()));
    } else if (key == "weights") {
      Result<std::string> name = value.GetString();
      if (!name.ok()) return name.status();
      Result<WeightKind> kind = ParseWeightKind(name.value());
      if (!kind.ok()) return kind.status();
      request.weight_kind = kind.value();
    } else if (key == "coverage") {
      Result<std::string> name = value.GetString();
      if (!name.ok()) return name.status();
      Result<CoverageKind> kind = ParseCoverageKind(name.value());
      if (!kind.ok()) return kind.status();
      request.coverage_kind = kind.value();
    } else if (key == "must_have") {
      PODIUM_ASSIGN_OR_RETURN(request.must_have,
                              StringList(value, "must_have"));
    } else if (key == "must_not") {
      PODIUM_ASSIGN_OR_RETURN(request.must_not, StringList(value, "must_not"));
    } else if (key == "priority") {
      PODIUM_ASSIGN_OR_RETURN(request.priority, StringList(value, "priority"));
    } else if (key == "explain") {
      Result<bool> flag = value.GetBool();
      if (!flag.ok()) return flag.status();
      request.explain = flag.value();
    } else if (key == "deadline_ms") {
      PODIUM_ASSIGN_OR_RETURN(
          const std::size_t deadline,
          NonNegativeInt(value, "deadline_ms", 0));
      request.deadline_ms = static_cast<std::int64_t>(deadline);
    } else {
      return Status::ParseError("unknown request field '" + key + "'");
    }
  }
  return request;
}

std::string CanonicalRequestKey(std::uint64_t generation,
                                const SelectionRequest& request) {
  std::string key = "{\"gen\":";
  json::AppendNumber(static_cast<double>(generation), key);
  key += ",\"budget\":";
  json::AppendNumber(static_cast<double>(request.budget), key);
  key += ",\"weights\":";
  json::AppendEscaped(request.weight_kind.has_value()
                          ? WeightKindName(*request.weight_kind)
                          : std::string_view(),
                      key);
  key += ",\"coverage\":";
  json::AppendEscaped(request.coverage_kind.has_value()
                          ? CoverageKindName(*request.coverage_kind)
                          : std::string_view(),
                      key);
  key += ",\"must_have\":";
  AppendLabels(request.must_have, key);
  key += ",\"must_not\":";
  AppendLabels(request.must_not, key);
  key += ",\"priority\":";
  AppendLabels(request.priority, key);
  key += ",\"explain\":";
  key += request.explain ? "true" : "false";
  key.push_back('}');
  return key;
}

std::string SerializeOutcome(const SelectionOutcome& outcome,
                             const DiversificationInstance* explain) {
  std::string out = ReplyHead(outcome);
  if (outcome.request.explain && explain != nullptr) {
    out += ",\"explanations\":[";
    for (std::size_t i = 0; i < outcome.users.size(); ++i) {
      if (i > 0) out.push_back(',');
      const UserId user = outcome.users[i];
      out += "{\"name\":";
      json::AppendEscaped(explain->repository().user(user).name(), out);
      out += ",\"groups\":[";
      const std::vector<GroupId> groups = GroupsByWeight(*explain, user);
      for (std::size_t j = 0; j < groups.size(); ++j) {
        if (j > 0) out.push_back(',');
        out += "{\"label\":";
        json::AppendEscaped(explain->groups().label(groups[j]), out);
        out += ",\"weight\":";
        json::AppendNumber(explain->weight(groups[j]), out);
        out += ",\"cov\":";
        json::AppendNumber(static_cast<double>(explain->coverage(groups[j])),
                           out);
        out.push_back('}');
      }
      out += "]}";
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

std::string SerializeOutcome(const SelectionOutcome& outcome) {
  std::string out = ReplyHead(outcome);
  if (outcome.request.explain && outcome.explanations.is_array()) {
    out += ",\"explanations\":";
    out += json::Write(outcome.explanations);
  }
  out.push_back('}');
  return out;
}

}  // namespace podium::serve
