#include "podium/check/oracle.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "podium/json/writer.h"
#include "podium/util/string_util.h"

namespace podium::check {

namespace {

/// |subset ∩ G| by scanning the subset and testing membership via the
/// group definition (property score in bucket) — not via any index.
std::uint32_t DirectIntersection(const DiversificationInstance& instance,
                                 GroupId g, std::span<const UserId> subset) {
  const GroupDef& def = instance.groups().def(g);
  std::uint32_t count = 0;
  for (UserId u : subset) {
    const auto score = instance.repository().user(u).Get(def.property);
    if (score.has_value() && def.bucket.Contains(*score)) ++count;
  }
  return count;
}

}  // namespace

double OracleScore(const DiversificationInstance& instance,
                   std::span<const UserId> subset) {
  double score = 0.0;
  for (GroupId g = 0; g < instance.groups().group_count(); ++g) {
    const std::uint32_t count = DirectIntersection(instance, g, subset);
    score += instance.weight(g) *
             std::min(count, instance.coverage(g));
  }
  return score;
}

double OracleTierScore(const DiversificationInstance& instance,
                       std::span<const UserId> subset,
                       const std::vector<std::uint8_t>& tiers,
                       std::uint8_t tier) {
  double score = 0.0;
  for (GroupId g = 0; g < instance.groups().group_count(); ++g) {
    if ((tiers.empty() ? 0 : tiers[g]) != tier) continue;
    const std::uint32_t count = DirectIntersection(instance, g, subset);
    score += instance.weight(g) *
             std::min(count, instance.coverage(g));
  }
  return score;
}

NestedGroups BuildNestedGroups(const DiversificationInstance& instance) {
  const std::size_t num_users = instance.repository().user_count();
  const std::size_t num_groups = instance.groups().group_count();
  NestedGroups nested;
  nested.members.resize(num_groups);
  nested.groups_of.resize(num_users);
  for (GroupId g = 0; g < num_groups; ++g) {
    const GroupDef& def = instance.groups().def(g);
    for (UserId u = 0; u < num_users; ++u) {
      const auto score = instance.repository().user(u).Get(def.property);
      if (score.has_value() && def.bucket.Contains(*score)) {
        nested.members[g].push_back(u);
        nested.groups_of[u].push_back(g);
      }
    }
  }
  return nested;
}

Status CheckAdjacency(const DiversificationInstance& instance) {
  const GroupIndex& index = instance.groups();
  const NestedGroups nested = BuildNestedGroups(instance);
  for (GroupId g = 0; g < index.group_count(); ++g) {
    const std::span<const UserId> csr = index.members(g);
    if (!std::equal(csr.begin(), csr.end(), nested.members[g].begin(),
                    nested.members[g].end())) {
      return Status::Internal(util::StringPrintf(
          "CSR members of group %u diverge from the nested oracle "
          "(%zu vs %zu entries)",
          g, csr.size(), nested.members[g].size()));
    }
  }
  for (UserId u = 0; u < index.user_count(); ++u) {
    const std::span<const GroupId> csr = index.groups_of(u);
    if (!std::equal(csr.begin(), csr.end(), nested.groups_of[u].begin(),
                    nested.groups_of[u].end())) {
      return Status::Internal(util::StringPrintf(
          "CSR groups_of user %u diverge from the nested oracle "
          "(%zu vs %zu entries)",
          u, csr.size(), nested.groups_of[u].size()));
    }
  }
  return Status::Ok();
}

Result<Selection> OracleGreedy(const DiversificationInstance& instance,
                               std::size_t budget, std::vector<UserId> pool,
                               std::vector<std::uint8_t> tiers) {
  const std::size_t num_users = instance.repository().user_count();
  if (budget == 0) return Status::InvalidArgument("budget must be positive");
  if (pool.empty()) {
    pool.resize(num_users);
    for (UserId u = 0; u < num_users; ++u) pool[u] = u;
  } else {
    // Ascending ids so that "first candidate wins ties" below coincides
    // with the optimized selectors' ascending-id default tie-break.
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    if (!pool.empty() && pool.back() >= num_users) {
      return Status::OutOfRange("candidate pool user id out of range");
    }
  }
  std::vector<std::uint8_t> taken(num_users, 0);

  Selection selection;
  for (std::size_t round = 0; round < budget; ++round) {
    const double base0 = OracleTierScore(instance, selection.users, tiers, 0);
    const double base1 = OracleTierScore(instance, selection.users, tiers, 1);
    UserId chosen = kInvalidUser;
    double best0 = 0.0;
    double best1 = 0.0;
    for (UserId u : pool) {
      if (taken[u]) continue;
      std::vector<UserId> with_u(selection.users);
      with_u.push_back(u);
      const double gain0 =
          OracleTierScore(instance, with_u, tiers, 0) - base0;
      const double gain1 =
          OracleTierScore(instance, with_u, tiers, 1) - base1;
      // Larger (gain0, gain1) lexicographically wins; ties keep the
      // earlier (smaller-id) candidate.
      if (chosen == kInvalidUser || gain0 > best0 ||
          (gain0 == best0 && gain1 > best1)) {
        chosen = u;
        best0 = gain0;
        best1 = gain1;
      }
    }
    if (chosen == kInvalidUser) break;  // pool exhausted
    taken[chosen] = 1;
    selection.users.push_back(chosen);
  }
  selection.score = OracleScore(instance, selection.users);
  return selection;
}

Result<std::vector<UserId>> OracleEbsGreedy(
    const DiversificationInstance& instance, std::size_t budget,
    std::vector<UserId> pool, std::vector<UserId> tie_order) {
  const std::size_t num_users = instance.repository().user_count();
  const std::size_t num_groups = instance.groups().group_count();
  if (budget == 0) return Status::InvalidArgument("budget must be positive");
  if (instance.weight_kind() != WeightKind::kEbs) {
    return Status::InvalidArgument("OracleEbsGreedy needs EBS weights");
  }
  if (pool.empty()) {
    pool.resize(num_users);
    for (UserId u = 0; u < num_users; ++u) pool[u] = u;
  }
  if (tie_order.empty()) {
    tie_order.resize(num_users);
    for (UserId u = 0; u < num_users; ++u) tie_order[u] = u;
  }
  // Scanning candidates in tie order and keeping strict improvements
  // breaks ties toward the earlier user.
  std::vector<UserId> candidates;
  std::vector<std::uint8_t> in_pool(num_users, 0);
  for (UserId u : pool) {
    if (u >= num_users) {
      return Status::OutOfRange("candidate pool user id out of range");
    }
    in_pool[u] = 1;
  }
  for (UserId u : tie_order) {
    if (u < num_users && in_pool[u]) {
      candidates.push_back(u);
      in_pool[u] = 0;  // once, even if tie_order repeats it
    }
  }

  std::vector<UserId> selected;
  std::vector<std::uint8_t> taken(num_users, 0);
  while (selected.size() < budget) {
    std::vector<std::uint8_t> alive(num_groups, 0);
    for (GroupId g = 0; g < num_groups; ++g) {
      alive[g] =
          DirectIntersection(instance, g, selected) < instance.coverage(g);
    }
    UserId chosen = kInvalidUser;
    std::vector<std::uint32_t> best;
    for (UserId u : candidates) {
      if (taken[u]) continue;
      const UserId single[] = {u};
      std::vector<std::uint32_t> ranks;
      for (GroupId g = 0; g < num_groups; ++g) {
        if (alive[g] && DirectIntersection(instance, g, single) == 1) {
          ranks.push_back(instance.weights().rank(g));
        }
      }
      std::sort(ranks.begin(), ranks.end(), std::greater<std::uint32_t>());
      // lexicographical_compare(best, ranks): ranks is larger at the first
      // difference, or best is a proper prefix of it.
      if (chosen == kInvalidUser ||
          std::lexicographical_compare(best.begin(), best.end(),
                                       ranks.begin(), ranks.end())) {
        chosen = u;
        best = std::move(ranks);
      }
    }
    if (chosen == kInvalidUser) break;  // pool exhausted
    taken[chosen] = 1;
    selected.push_back(chosen);
  }
  return selected;
}

Result<ProfileRepository> RepositoryFromJson(const json::Value& document) {
  if (!document.is_object()) {
    return Status::ParseError("repository document must be a JSON object");
  }
  const json::Object& root = document.AsObject();

  // Kinds first so properties intern with the right kind.
  ProfileRepository repository;
  if (const json::Value* kinds = root.Find("kinds"); kinds != nullptr) {
    if (!kinds->is_object()) {
      return Status::ParseError("'kinds' must be an object");
    }
    for (const auto& [label, kind_value] : kinds->AsObject().entries()) {
      Result<std::string> kind_text = kind_value.GetString();
      if (!kind_text.ok()) return kind_text.status();
      Result<PropertyKind> kind = ParsePropertyKind(kind_text.value());
      if (!kind.ok()) return kind.status();
      repository.properties().Intern(label, kind.value());
    }
  }

  const json::Value* users = root.Find("users");
  if (users == nullptr || !users->is_array()) {
    return Status::ParseError("repository document must have a 'users' array");
  }
  for (const json::Value& user_value : users->AsArray()) {
    if (!user_value.is_object()) {
      return Status::ParseError("each user must be a JSON object");
    }
    const json::Object& user = user_value.AsObject();
    const json::Value* name = user.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Status::ParseError("each user must have a string 'name'");
    }
    Result<UserId> id = repository.AddUser(name->AsString());
    if (!id.ok()) return id.status();

    const json::Value* props = user.Find("properties");
    if (props == nullptr) continue;  // a user with an empty profile
    if (!props->is_object()) {
      return Status::ParseError("'properties' must be an object for user " +
                                name->AsString());
    }
    for (const auto& [label, score_value] : props->AsObject().entries()) {
      double score;
      if (score_value.is_bool()) {
        score = score_value.AsBool() ? 1.0 : 0.0;
        repository.properties().Intern(label, PropertyKind::kBoolean);
      } else if (score_value.is_number()) {
        score = score_value.AsNumber();
      } else {
        return Status::ParseError("score of '" + label +
                                  "' must be a number or bool");
      }
      PODIUM_RETURN_IF_ERROR(repository.SetScore(id.value(), label, score));
    }
  }
  return repository;
}

namespace {

json::Value LabelArray(const std::vector<std::string>& labels) {
  json::Array out;
  out.reserve(labels.size());
  for (const std::string& label : labels) out.emplace_back(label);
  return json::Value(std::move(out));
}

/// exp(u) for every selected user: {"name", "groups": [{"label", "weight",
/// "cov"}, ...]}, each group list stably sorted by decreasing weight.
json::Value ReferenceExplanations(const DiversificationInstance& instance,
                                  const std::vector<UserId>& users) {
  struct Entry {
    std::string label;
    double weight;
    std::uint32_t cov;
  };
  json::Array out;
  for (UserId u : users) {
    const UserProfile& profile = instance.repository().user(u);
    std::vector<Entry> entries;
    for (GroupId g = 0; g < instance.groups().group_count(); ++g) {
      const GroupDef& def = instance.groups().def(g);
      const auto score = profile.Get(def.property);
      if (!score.has_value() || !def.bucket.Contains(*score)) continue;
      entries.push_back(Entry{def.label, instance.weight(g),
                              instance.coverage(g)});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.weight > b.weight;
                     });
    json::Array groups;
    for (const Entry& entry : entries) {
      json::Object group;
      group.Set("label", json::Value(entry.label));
      group.Set("weight", json::Value(entry.weight));
      group.Set("cov", json::Value(static_cast<double>(entry.cov)));
      groups.emplace_back(std::move(group));
    }
    json::Object user;
    user.Set("name", json::Value(profile.name()));
    user.Set("groups", json::Value(std::move(groups)));
    out.emplace_back(std::move(user));
  }
  return json::Value(std::move(out));
}

}  // namespace

std::string ReferenceReply(const serve::SelectionOutcome& outcome,
                           const DiversificationInstance* explain) {
  json::Object root;
  root.Set("snapshot_generation",
           json::Value(static_cast<double>(outcome.snapshot_generation)));
  root.Set("budget", json::Value(outcome.budget));
  root.Set("selector", json::Value(serve::kSelectorName));
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
    custom.Set("refined_pool", json::Value(outcome.refined_pool_size));
    root.Set("custom", json::Value(std::move(custom)));
  }
  json::Array users;
  for (std::size_t i = 0; i < outcome.users.size(); ++i) {
    json::Object user;
    user.Set("id", json::Value(static_cast<double>(outcome.users[i])));
    user.Set("name", json::Value(outcome.names[i]));
    users.emplace_back(std::move(user));
  }
  root.Set("users", json::Value(std::move(users)));
  if (outcome.request.explain && explain != nullptr) {
    root.Set("explanations", ReferenceExplanations(*explain, outcome.users));
  }
  return json::Write(json::Value(std::move(root)));
}

}  // namespace podium::check
