#include "workload.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

#include "podium/datagen/generator.h"
#include "podium/util/rng.h"
#include "stats.h"

namespace perfbench {

namespace {

using podium::Result;
using podium::Status;
using podium::util::Rng;

/// Population of the shard workload. The shard_bench shape at 200k users
/// takes ~13 s to load per server start; 100k keeps a run of the shard
/// workload inside its time budget while its adjacency still exceeds the
/// per-core caches.
constexpr std::size_t kShardUsers = 100000;

/// The miss mix per 200 requests: 70% default, 10% weight/coverage
/// overrides, 15% customized, 5% explain.
constexpr std::size_t kPoolDefault = 140;
constexpr std::size_t kPoolOverride = 20;
constexpr std::size_t kPoolCustom = 30;
constexpr std::size_t kPoolExplain = 10;
constexpr std::size_t kShardPool = 64;
/// hit sends this many distinct bodies, exactly one with explain.
constexpr std::size_t kHitBodies = 16;

/// must_have names a group at least this large, so the refined pool is
/// far bigger than any budget.
constexpr std::size_t kMustHaveMinMembers = 1000;

/// Stream length; phases cycle through it.
constexpr std::size_t kStreamLength = 100000;
/// Identical bodies sit at least this far apart in the stream, so the
/// loaded phase's clients rarely send the same body at once (the server
/// would coalesce them).
constexpr std::size_t kSpread = 8;

/// n budgets log-uniform in [4, 64], stratified: the i-th budget is the
/// midpoint of the i-th of n equal slices of [log 4, log 64], in seeded
/// order. Every seed's mix then holds the same budgets per request kind,
/// so the slow tail the p99 sees has the same shape from seed to seed;
/// the seed still picks the profiles, the order and the labels.
std::vector<std::size_t> StratifiedBudgets(std::size_t n, Rng& rng) {
  const double lo = std::log(4.0);
  const double hi = std::log(64.0);
  std::vector<std::size_t> budgets(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    budgets[i] = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(std::exp(lo + u * (hi - lo)))), 4,
        64);
  }
  rng.Shuffle(budgets);
  return budgets;
}

std::string BudgetField(std::size_t budget) {
  return "{\"budget\": " + std::to_string(budget);
}

std::string LabelList(const std::vector<std::string>& labels) {
  std::string out = "[";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(labels[i]);
  }
  return out + "]";
}

struct Draft {
  std::string body;
  RequestKind kind;
  std::size_t budget;
};

/// The miss mix as a pool of drafts (bodies may repeat).
Result<std::vector<Draft>> MissPool(const podium::serve::Snapshot& snapshot,
                                    Rng& rng) {
  const podium::GroupIndex& groups = snapshot.default_instance().groups();
  std::vector<podium::GroupId> large;
  for (podium::GroupId g = 0; g < groups.group_count(); ++g) {
    if (groups.group_size(g) >= kMustHaveMinMembers) large.push_back(g);
  }
  if (large.empty() || groups.group_count() < 3) {
    return Status::FailedPrecondition(
        "the profiles have no group with >= 1000 members for must_have");
  }

  std::vector<Draft> pool;
  for (std::size_t budget : StratifiedBudgets(kPoolDefault, rng)) {
    pool.push_back({BudgetField(budget) + "}", RequestKind::kDefault, budget});
  }
  static constexpr const char* kOverrides[][2] = {
      {"Iden", "Single"}, {"LBS", "Prop"}, {"EBS", "Single"}};
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t count = (kPoolOverride + 2 - k) / 3;  // 7, 7, 6
    for (std::size_t budget : StratifiedBudgets(count, rng)) {
      pool.push_back({BudgetField(budget) + ", \"weights\": \"" +
                          kOverrides[k][0] + "\", \"coverage\": \"" +
                          kOverrides[k][1] + "\"}",
                      RequestKind::kOverride, budget});
    }
  }
  for (std::size_t budget : StratifiedBudgets(kPoolCustom, rng)) {
    const podium::GroupId must = large[rng.NextBounded(large.size())];
    std::vector<std::string> priority;
    const std::size_t count = 1 + rng.NextBounded(3);
    for (std::size_t i = 0; i < count; ++i) {
      priority.push_back(groups.label(
          static_cast<podium::GroupId>(rng.NextBounded(groups.group_count()))));
    }
    pool.push_back({BudgetField(budget) + ", \"must_have\": " +
                        LabelList({groups.label(must)}) +
                        ", \"priority\": " + LabelList(priority) + "}",
                    RequestKind::kCustom, budget});
  }
  for (std::size_t budget : StratifiedBudgets(kPoolExplain, rng)) {
    pool.push_back({BudgetField(budget) + ", \"explain\": true}",
                    RequestKind::kExplain, budget});
  }
  rng.Shuffle(pool);
  return pool;
}

/// hit's bodies: distinct bodies of the miss pool in the miss mix's
/// proportions, with exactly one explain request — the one whose budget is
/// closest to 8, the 290 KB reply.
std::vector<Draft> HitBodies(const std::vector<Draft>& miss_pool) {
  const std::map<RequestKind, std::size_t> quota = {
      {RequestKind::kDefault, kHitBodies - 5},
      {RequestKind::kOverride, 2},
      {RequestKind::kCustom, 2}};
  std::map<RequestKind, std::size_t> taken;
  std::vector<Draft> bodies;
  const Draft* explain = nullptr;
  for (const Draft& draft : miss_pool) {
    if (draft.kind == RequestKind::kExplain) {
      const auto distance = [](const Draft& d) {
        return d.budget > 8 ? d.budget - 8 : 8 - d.budget;
      };
      if (explain == nullptr || distance(draft) < distance(*explain)) {
        explain = &draft;
      }
      continue;
    }
    if (taken[draft.kind] >= quota.at(draft.kind)) continue;
    const bool seen = std::any_of(
        bodies.begin(), bodies.end(),
        [&](const Draft& other) { return other.body == draft.body; });
    if (seen) continue;
    ++taken[draft.kind];
    bodies.push_back(draft);
  }
  bodies.push_back(*explain);
  return bodies;
}

std::vector<std::uint32_t> MakeStream(const std::vector<std::uint32_t>& pool,
                                      Rng& rng) {
  std::vector<std::uint32_t> stream;
  stream.reserve(kStreamLength + pool.size());
  std::vector<std::uint32_t> epoch = pool;
  while (stream.size() < kStreamLength) {
    rng.Shuffle(epoch);
    stream.insert(stream.end(), epoch.begin(), epoch.end());
  }
  const auto repeats_near = [&](std::size_t at, std::uint32_t body) {
    const std::size_t from = at > kSpread ? at - kSpread : 0;
    const std::size_t to = std::min(stream.size(), at + kSpread + 1);
    for (std::size_t i = from; i < to; ++i) {
      if (i != at && stream[i] == body) return true;
    }
    return false;
  };
  // Swaps stay inside one epoch, so each epoch keeps the exact mix.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::size_t epoch_end = (i / pool.size() + 1) * pool.size();
    if (i + 1 >= epoch_end || !repeats_near(i, stream[i])) continue;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t j = i + 1 + rng.NextBounded(epoch_end - i - 1);
      std::swap(stream[i], stream[j]);
      if (!repeats_near(i, stream[i]) && !repeats_near(j, stream[j])) break;
      std::swap(stream[i], stream[j]);
    }
  }
  return stream;
}

}  // namespace

podium::Status WriteProfiles(const WorkloadSpec& spec,
                             const std::string& path) {
  Result<podium::datagen::Dataset> dataset =
      podium::datagen::GenerateDataset(spec.dataset);
  if (!dataset.ok()) return dataset.status();
  const podium::ProfileRepository& repository = dataset->repository;
  const podium::PropertyTable& table = repository.properties();
  std::vector<std::string> labels;
  labels.reserve(table.size());
  for (podium::PropertyId p = 0; p < table.size(); ++p) {
    labels.push_back(JsonQuote(table.Label(p)));
  }

  std::string out = "{\"users\": [";
  char number[32];
  for (podium::UserId u = 0; u < repository.user_count(); ++u) {
    const podium::UserProfile& profile = repository.user(u);
    out += u == 0 ? "\n{\"name\": " : ",\n{\"name\": ";
    out += JsonQuote(profile.name());
    out += ", \"properties\": {";
    bool first = true;
    for (const podium::PropertyScore& entry : profile.entries()) {
      if (!first) out += ", ";
      first = false;
      out += labels[entry.property];
      out += ": ";
      // Shortest form that reads back as the same double.
      const auto [end, ec] =
          std::to_chars(number, number + sizeof(number), entry.score);
      out.append(number, end);
    }
    out += "}}";
  }
  out += "\n], \"kinds\": {";
  bool first = true;
  for (podium::PropertyId p = 0; p < table.size(); ++p) {
    if (table.Kind(p) != podium::PropertyKind::kBoolean) continue;
    if (!first) out += ", ";
    first = false;
    out += labels[p] + ": \"boolean\"";
  }
  out += "}}\n";

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot create " + path);
  // Flushed to disk now: left dirty, the 60-180 MB would be written back
  // some 30 s later, in the middle of the timed phases.
  const bool written =
      std::fwrite(out.data(), 1, out.size(), file) == out.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  if (std::fclose(file) != 0 || !written) {
    return Status::IoError("cannot write " + path);
  }
  return Status::Ok();
}

Result<WorkloadSpec> MakeWorkload(const std::string& name,
                                  std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "hit" || name == "miss") {
    spec.dataset = podium::datagen::DatasetConfig::TripAdvisorLike();
    spec.dataset.num_users = 5000;
    if (name == "miss") {
      spec.server_flags = {"--cache-entries=0"};
      spec.cache_entries = 0;
    }
  } else if (name == "shard") {
    // shard_bench's dataset shape.
    spec.dataset.num_users = kShardUsers;
    spec.dataset.num_restaurants = kShardUsers / 8;
    spec.dataset.leaf_categories = 60;
    spec.dataset.num_cities = 30;
    spec.dataset.min_reviews_per_user = 3;
    spec.dataset.max_reviews_per_user = 12;
    spec.dataset.derive_enthusiasm = false;
    spec.dataset.holdout_destinations = 0;
    spec.server_flags = {"--shards=4", "--cache-entries=0"};
    spec.cache_entries = 0;
    spec.snapshot.shard.num_shards = 4;
  } else {
    return Status::NotFound("unknown workload '" + name +
                            "' (expected hit, miss or shard)");
  }
  spec.dataset.seed = seed;
  return spec;
}

Result<RequestMix> MakeRequestMix(const WorkloadSpec& spec, std::uint64_t seed,
                                  const podium::serve::Snapshot& snapshot) {
  Rng rng(seed ^ 0x7065726662656e63ULL);
  std::vector<Draft> pool;
  if (spec.snapshot.shard.num_shards > 1) {
    // Sharding answers customization, explain and overrides with 501.
    for (std::size_t budget : StratifiedBudgets(kShardPool, rng)) {
      pool.push_back(
          {BudgetField(budget) + "}", RequestKind::kDefault, budget});
    }
  } else {
    Result<std::vector<Draft>> miss = MissPool(snapshot, rng);
    if (!miss.ok()) return miss.status();
    pool = spec.name == "hit" ? HitBodies(miss.value())
                              : std::move(miss).value();
  }

  RequestMix mix;
  std::map<std::string, std::uint32_t> index;
  std::vector<std::uint32_t> pool_indices;
  for (const Draft& draft : pool) {
    auto [it, inserted] = index.emplace(
        draft.body, static_cast<std::uint32_t>(mix.bodies.size()));
    if (inserted) {
      mix.bodies.push_back(draft.body);
      mix.kinds.push_back(draft.kind);
    }
    pool_indices.push_back(it->second);
  }
  mix.stream = MakeStream(pool_indices, rng);
  mix.epoch = pool_indices.size();
  return mix;
}

}  // namespace perfbench
