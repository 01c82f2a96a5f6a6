#include "podium/serve/request.h"

#include <cmath>
#include <utility>

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

json::Value LabelArray(const std::vector<std::string>& labels) {
  json::Array out;
  out.reserve(labels.size());
  for (const std::string& label : labels) out.emplace_back(label);
  return json::Value(std::move(out));
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
  json::Object key;
  key.Set("gen", json::Value(static_cast<double>(generation)));
  key.Set("budget", json::Value(request.budget));
  key.Set("weights",
          json::Value(request.weight_kind.has_value()
                          ? std::string(WeightKindName(*request.weight_kind))
                          : std::string()));
  key.Set("coverage",
          json::Value(request.coverage_kind.has_value()
                          ? std::string(
                                CoverageKindName(*request.coverage_kind))
                          : std::string()));
  key.Set("must_have", LabelArray(request.must_have));
  key.Set("must_not", LabelArray(request.must_not));
  key.Set("priority", LabelArray(request.priority));
  key.Set("explain", json::Value(request.explain));
  return json::Write(json::Value(std::move(key)));
}

std::string SerializeOutcome(const SelectionOutcome& outcome) {
  json::Object root;
  root.Set("snapshot_generation",
           json::Value(static_cast<double>(outcome.snapshot_generation)));
  root.Set("budget", json::Value(outcome.budget));
  root.Set("selector", json::Value(kSelectorName));
  root.Set("weights", json::Value(WeightKindName(outcome.weight_kind)));
  root.Set("coverage", json::Value(CoverageKindName(outcome.coverage_kind)));
  root.Set("must_have", LabelArray(outcome.request.must_have));
  root.Set("must_not", LabelArray(outcome.request.must_not));
  root.Set("priority", LabelArray(outcome.request.priority));
  root.Set("score", json::Value(outcome.score));
  if (outcome.custom_score.has_value()) {
    json::Object custom;
    custom.Set("priority_score", json::Value(outcome.custom_score->priority));
    custom.Set("standard_score", json::Value(outcome.custom_score->standard));
    custom.Set("refined_pool",
               json::Value(outcome.refined_pool_size));
    root.Set("custom", json::Value(std::move(custom)));
  }
  json::Array users;
  users.reserve(outcome.users.size());
  for (std::size_t i = 0; i < outcome.users.size(); ++i) {
    json::Object user;
    user.Set("id", json::Value(static_cast<double>(outcome.users[i])));
    user.Set("name", json::Value(outcome.names[i]));
    users.emplace_back(std::move(user));
  }
  root.Set("users", json::Value(std::move(users)));
  if (outcome.request.explain && outcome.explanations.is_array()) {
    root.Set("explanations", outcome.explanations);
  }
  return json::Write(json::Value(std::move(root)));
}

}  // namespace podium::serve
