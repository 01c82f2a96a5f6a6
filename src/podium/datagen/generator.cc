#include "podium/datagen/generator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "podium/datagen/persona.h"
#include "podium/datagen/vocabularies.h"
#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/math_util.h"
#include "podium/util/rng.h"
#include "podium/util/string_util.h"
#include "podium/util/thread_pool.h"

namespace podium::datagen {

namespace {

struct Restaurant {
  std::uint32_t city = 0;
  std::vector<std::uint32_t> leaf_indices;  // indices into Dataset::leaf_categories
  double quality = 0.5;                     // latent, in [0, 1]
  std::vector<float> topic_quality;         // per topic, in [0, 1]
};

struct UserRecord {
  UserTaste taste;
  std::uint32_t city = 0;
  std::uint32_t age_group = 0;
  std::size_t review_target = 0;
};

/// Transient per-review record kept for profile derivation.
struct ReviewStub {
  opinion::DestinationId destination;
  int rating;
};

double MeanAffinity(const UserTaste& taste, const Restaurant& restaurant) {
  double total = 0.0;
  for (std::uint32_t leaf : restaurant.leaf_indices) {
    total += taste.category_affinity[leaf];
  }
  return total / static_cast<double>(restaurant.leaf_indices.size());
}

int SampleRating(const UserTaste& taste, const Restaurant& restaurant,
                 util::Rng& rng) {
  // Taste dominates within a destination (its quality is a constant
  // there); temperament biases; noise blurs. A strong affinity->rating
  // coupling is what lets profile-diverse panels produce rating-diverse
  // opinions — the paper's central empirical observation.
  const double affinity01 = 0.5 + 0.5 * MeanAffinity(taste, restaurant);
  double score01 = 0.42 * restaurant.quality + 0.42 * affinity01 +
                   0.08 * (0.5 + 0.5 * taste.positivity) +
                   0.08 * taste.rating_bias + rng.NextGaussian(0.0, 0.09);
  score01 = util::Clamp(score01, 0.0, 0.9999);
  return 1 + static_cast<int>(score01 * 5.0);
}

opinion::Sentiment SampleSentiment(const UserTaste& taste,
                                   const Restaurant& restaurant,
                                   opinion::TopicId topic, int rating,
                                   util::Rng& rng) {
  const double topic_quality =
      static_cast<double>(restaurant.topic_quality[topic]);
  const double logit = 3.2 * (topic_quality - 0.5) +
                       0.55 * (static_cast<double>(rating) - 3.0) +
                       0.5 * taste.positivity + rng.NextGaussian(0.0, 0.8);
  const double p = 1.0 / (1.0 + std::exp(-logit));
  return rng.NextBernoulli(p) ? opinion::Sentiment::kPositive
                              : opinion::Sentiment::kNegative;
}

int SampleUsefulVotes(const Restaurant& restaurant, int rating,
                      util::Rng& rng) {
  // Reviews aligned with the destination's latent quality resonate with
  // more readers ("a larger group of users agree or can relate").
  const double expected = 1.0 + 4.0 * restaurant.quality;
  const double agreement =
      1.0 - std::fabs(static_cast<double>(rating) - expected) / 4.0;
  const double scale = std::exp(rng.NextGaussian(0.0, 0.9));
  const double votes = std::max(0.0, 2.5 * agreement * scale - 0.8);
  return static_cast<int>(votes);
}

}  // namespace

Result<Dataset> GenerateDataset(const DatasetConfig& config) {
  if (config.num_users == 0 || config.num_restaurants == 0) {
    return Status::InvalidArgument("dataset must have users and restaurants");
  }
  if (config.min_reviews_per_user == 0 ||
      config.max_reviews_per_user < config.min_reviews_per_user) {
    return Status::InvalidArgument("invalid review count range");
  }

  obs::Span generate_span("datagen.generate");
  Dataset dataset;
  dataset.config = config;
  util::Rng rng(config.seed);

  // --- Vocabularies -------------------------------------------------------
  CuisineTaxonomy cuisine = BuildCuisineTaxonomy(config.leaf_categories);
  dataset.cuisine = std::move(cuisine.taxonomy);
  dataset.leaf_categories = std::move(cuisine.leaves);
  dataset.cities = CityNames(config.num_cities);
  dataset.age_groups = AgeGroupLabels(config.num_age_groups);
  const std::vector<std::string> topics = TopicNames(config.num_topics);
  for (const std::string& topic : topics) {
    dataset.opinions.InternTopic(topic);
  }
  const std::size_t num_leaves = dataset.leaf_categories.size();

  // Ancestor closure per leaf (leaf itself first, then ancestors). The
  // taxonomy root ("Food") is excluded: it holds for every review, so a
  // derived "avgRating Food" property would carry no information and its
  // buckets would dominate the group-size ranking with noise.
  const taxonomy::CategoryId root = dataset.cuisine.Find("Food");
  std::vector<std::vector<taxonomy::CategoryId>> closure(num_leaves);
  for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
    closure[leaf].push_back(dataset.leaf_categories[leaf]);
    for (taxonomy::CategoryId ancestor :
         dataset.cuisine.Ancestors(dataset.leaf_categories[leaf])) {
      if (ancestor == root) continue;
      closure[leaf].push_back(ancestor);
    }
  }

  // --- Personas and users -------------------------------------------------
  std::optional<obs::Span> section;
  section.emplace("datagen.users");
  util::Rng persona_rng = rng.Fork(1);
  std::vector<Persona> personas;
  personas.reserve(config.num_personas);
  for (std::size_t i = 0; i < config.num_personas; ++i) {
    personas.push_back(SamplePersona(num_leaves, topics.size(), persona_rng));
  }

  // Topics are anchored to categories (a vegan cares about "veggie
  // options"): each topic gets a few anchor leaf categories, and a user's
  // interest in the topic blends the persona's interest with the user's
  // affinity for the anchors. This is the profile -> opinion-content
  // coupling behind "diverse users provide diverse opinions".
  util::Rng anchor_rng = rng.Fork(8);
  std::vector<std::vector<std::size_t>> topic_anchors(topics.size());
  for (auto& anchors : topic_anchors) {
    anchors = anchor_rng.SampleWithoutReplacement(
        num_leaves, std::min<std::size_t>(3, num_leaves));
  }

  util::Rng user_rng = rng.Fork(2);
  std::vector<UserRecord> users(config.num_users);
  const std::size_t activity_range =
      config.max_reviews_per_user - config.min_reviews_per_user + 1;
  for (UserRecord& user : users) {
    const std::size_t persona =
        user_rng.NextZipf(config.num_personas, config.persona_zipf);
    user.taste = SampleUserTaste(personas[persona], persona, user_rng);
    for (std::size_t t = 0; t < topic_anchors.size(); ++t) {
      double anchor_affinity = 0.0;
      for (std::size_t leaf : topic_anchors[t]) {
        anchor_affinity = std::max(
            anchor_affinity, std::fabs(user.taste.category_affinity[leaf]));
      }
      user.taste.topic_interest[t] = util::Clamp(
          0.35 * user.taste.topic_interest[t] + 0.85 * anchor_affinity +
              0.02,
          0.0, 1.0);
    }
    user.city = static_cast<std::uint32_t>(
        user_rng.NextZipf(dataset.cities.size(), config.city_zipf));
    user.age_group = static_cast<std::uint32_t>(
        user_rng.NextZipf(dataset.age_groups.size(), 0.5));
    user.review_target = config.min_reviews_per_user +
                         user_rng.NextZipf(activity_range,
                                           config.activity_zipf);
  }

  // --- Restaurants --------------------------------------------------------
  section.emplace("datagen.restaurants");
  util::Rng restaurant_rng = rng.Fork(3);
  std::vector<Restaurant> restaurants(config.num_restaurants);
  std::vector<std::vector<std::uint32_t>> restaurants_by_leaf(num_leaves);
  for (std::uint32_t r = 0; r < restaurants.size(); ++r) {
    Restaurant& restaurant = restaurants[r];
    restaurant.city = static_cast<std::uint32_t>(
        restaurant_rng.NextZipf(dataset.cities.size(), config.city_zipf));
    const auto primary = static_cast<std::uint32_t>(
        restaurant_rng.NextZipf(num_leaves, config.category_zipf));
    restaurant.leaf_indices.push_back(primary);
    // Optional secondary (and rarely tertiary) category.
    if (restaurant_rng.NextBernoulli(0.5)) {
      const auto secondary = static_cast<std::uint32_t>(
          restaurant_rng.NextZipf(num_leaves, config.category_zipf));
      if (secondary != primary) restaurant.leaf_indices.push_back(secondary);
      if (restaurant_rng.NextBernoulli(0.15)) {
        const auto tertiary =
            static_cast<std::uint32_t>(restaurant_rng.NextBounded(num_leaves));
        if (std::find(restaurant.leaf_indices.begin(),
                      restaurant.leaf_indices.end(),
                      tertiary) == restaurant.leaf_indices.end()) {
          restaurant.leaf_indices.push_back(tertiary);
        }
      }
    }
    restaurant.quality =
        util::Clamp(restaurant_rng.NextGaussian(0.62, 0.16), 0.15, 0.97);
    restaurant.topic_quality.resize(topics.size());
    for (float& q : restaurant.topic_quality) {
      q = static_cast<float>(util::Clamp(
          restaurant_rng.NextGaussian(restaurant.quality, 0.18), 0.0, 1.0));
    }
    for (std::uint32_t leaf : restaurant.leaf_indices) {
      restaurants_by_leaf[leaf].push_back(r);
    }
    opinion::Destination destination;
    destination.name = util::StringPrintf("restaurant-%05u", r);
    destination.city = dataset.cities[restaurant.city];
    for (std::uint32_t leaf : restaurant.leaf_indices) {
      destination.categories.push_back(
          dataset.cuisine.Name(dataset.leaf_categories[leaf]));
    }
    dataset.opinions.AddDestination(std::move(destination));
  }

  // --- Reviews ------------------------------------------------------------
  // Category choice per review: softmax-ish over the user's positive
  // affinities with an exploration floor.
  section.emplace("datagen.reviews");
  util::Rng review_rng = rng.Fork(4);
  std::vector<std::vector<ReviewStub>> stubs(config.num_users);
  std::vector<double> category_weights(num_leaves);
  for (std::uint32_t u = 0; u < users.size(); ++u) {
    const UserRecord& user = users[u];
    for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
      const double affinity = user.taste.category_affinity[leaf];
      category_weights[leaf] = 0.04 + (affinity > 0.0 ? 2.5 * affinity : 0.0);
    }
    std::unordered_set<std::uint32_t> visited;
    std::size_t attempts = 0;
    const std::size_t max_attempts = user.review_target * 6;
    while (stubs[u].size() < user.review_target &&
           attempts++ < max_attempts) {
      const std::size_t leaf = review_rng.NextDiscrete(category_weights);
      const auto& pool = restaurants_by_leaf[leaf];
      if (pool.empty()) continue;
      const std::uint32_t r = pool[review_rng.NextZipf(
          pool.size(), config.restaurant_popularity_zipf)];
      if (!visited.insert(r).second) continue;  // already reviewed
      const Restaurant& restaurant = restaurants[r];
      opinion::Review review;
      review.user = u;
      review.destination = r;
      review.rating = SampleRating(user.taste, restaurant, review_rng);
      // 1..4 topic mentions weighted by the user's interests.
      const std::size_t mentions = 1 + review_rng.NextBounded(4);
      std::unordered_set<opinion::TopicId> mentioned;
      for (std::size_t m = 0; m < mentions; ++m) {
        const auto topic = static_cast<opinion::TopicId>(
            review_rng.NextDiscrete(user.taste.topic_interest));
        if (!mentioned.insert(topic).second) continue;
        review.topics.push_back(opinion::TopicMention{
            topic, SampleSentiment(user.taste, restaurant, topic,
                                   review.rating, review_rng)});
      }
      if (config.with_usefulness) {
        review.useful_votes =
            SampleUsefulVotes(restaurant, review.rating, review_rng);
      }
      stubs[u].push_back(ReviewStub{r, review.rating});
      PODIUM_RETURN_IF_ERROR(dataset.opinions.AddReview(std::move(review)));
    }
  }

  // --- Hold-out destinations ----------------------------------------------
  std::vector<opinion::DestinationId> popular =
      dataset.opinions.PopularDestinations(config.min_holdout_reviews);
  if (popular.size() > config.holdout_destinations) {
    popular.resize(config.holdout_destinations);
  }
  dataset.holdout = std::move(popular);
  std::unordered_set<opinion::DestinationId> holdout_set(
      dataset.holdout.begin(), dataset.holdout.end());

  // --- Profile derivation (Section 8.1) ------------------------------------
  // Property ids are interned once up front so per-user work is pure
  // aggregation.
  section.emplace("datagen.profiles");
  ProfileRepository& repo = dataset.repository;
  PropertyTable& properties = repo.properties();
  const std::size_t num_categories = dataset.cuisine.size();
  std::vector<PropertyId> avg_rating_property(num_categories);
  std::vector<PropertyId> visit_freq_property(num_categories);
  std::vector<PropertyId> enthusiasm_property(num_categories);
  for (taxonomy::CategoryId c = 0; c < num_categories; ++c) {
    const std::string& name = dataset.cuisine.Name(c);
    avg_rating_property[c] = properties.Intern("avgRating " + name);
    visit_freq_property[c] = properties.Intern("visitFreq " + name);
    if (config.derive_enthusiasm) {
      enthusiasm_property[c] = properties.Intern("enthusiasm " + name);
    }
  }
  std::vector<PropertyId> lives_in_property(dataset.cities.size());
  for (std::size_t c = 0; c < dataset.cities.size(); ++c) {
    lives_in_property[c] =
        properties.Intern("livesIn " + dataset.cities[c],
                          PropertyKind::kBoolean);
  }
  std::vector<PropertyId> age_group_property(dataset.age_groups.size());
  for (std::size_t a = 0; a < dataset.age_groups.size(); ++a) {
    age_group_property[a] =
        properties.Intern("ageGroup " + dataset.age_groups[a],
                          PropertyKind::kBoolean);
  }

  // Per-restaurant deduplicated category closure (leaves + ancestors), so
  // a review touches each category at most once and the frequency-style
  // scores stay within [0, 1].
  std::vector<std::vector<taxonomy::CategoryId>> restaurant_categories(
      restaurants.size());
  util::ParallelFor(
      restaurants.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
          std::vector<taxonomy::CategoryId>& categories =
              restaurant_categories[r];
          for (std::uint32_t leaf : restaurants[r].leaf_indices) {
            categories.insert(categories.end(), closure[leaf].begin(),
                              closure[leaf].end());
          }
          std::sort(categories.begin(), categories.end());
          categories.erase(
              std::unique(categories.begin(), categories.end()),
              categories.end());
        }
      },
      256);

  // Users are registered serially (AddUser mutates shared repository
  // storage), then the per-user aggregation — the expensive part — runs in
  // parallel: each chunk touches only its own users' profiles, and
  // ReplaceEntries normalizes entry order (stable sort by property id over
  // unique properties), so the hash-map iteration order inside a chunk
  // cannot leak into the result. Byte-identical at any --threads.
  std::vector<UserId> user_ids(users.size());
  for (std::uint32_t u = 0; u < users.size(); ++u) {
    Result<UserId> added = repo.AddUser(util::StringPrintf("user-%05u", u));
    if (!added.ok()) return added.status();
    user_ids[u] = added.value();
  }
  util::ParallelFor(
      users.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        struct CategoryAggregate {
          std::uint32_t count = 0;
          double rating_sum = 0.0;
        };
        std::unordered_map<taxonomy::CategoryId, CategoryAggregate>
            aggregates;
        for (std::size_t u = begin; u < end; ++u) {
          aggregates.clear();
          std::uint32_t total_reviews = 0;
          double total_rating = 0.0;
          for (const ReviewStub& stub : stubs[u]) {
            if (holdout_set.contains(stub.destination)) continue;
            ++total_reviews;
            total_rating += static_cast<double>(stub.rating);
            for (taxonomy::CategoryId category :
                 restaurant_categories[stub.destination]) {
              CategoryAggregate& aggregate = aggregates[category];
              ++aggregate.count;
              aggregate.rating_sum += static_cast<double>(stub.rating);
            }
          }

          std::vector<PropertyScore> entries;
          entries.reserve(3 * aggregates.size() + 2);
          if (total_reviews > 0) {
            const double overall_avg =
                total_rating / static_cast<double>(total_reviews);
            for (const auto& [category, aggregate] : aggregates) {
              const double category_avg =
                  aggregate.rating_sum / static_cast<double>(aggregate.count);
              // Average Rating, normalized by the user's overall average:
              // the ratio concentrates around 1, so center it at 0.5 and
              // clamp — ratio 0.5 -> score 0, ratio 1 -> 0.5, ratio 1.5+
              // -> 1 — keeping the bucket structure informative.
              entries.push_back(PropertyScore{
                  avg_rating_property[category],
                  util::Clamp(category_avg / overall_avg - 0.5, 0.0, 1.0)});
              // Visit Frequency: fraction of the user's visits in the
              // category.
              entries.push_back(PropertyScore{
                  visit_freq_property[category],
                  static_cast<double>(aggregate.count) /
                      static_cast<double>(total_reviews)});
              // Enthusiasm Level: fraction of rating points given to the
              // category.
              if (config.derive_enthusiasm) {
                entries.push_back(PropertyScore{
                    enthusiasm_property[category],
                    aggregate.rating_sum / total_rating});
              }
            }
          }
          entries.push_back(
              PropertyScore{lives_in_property[users[u].city], 1.0});
          entries.push_back(
              PropertyScore{age_group_property[users[u].age_group], 1.0});
          repo.mutable_user(user_ids[u]).ReplaceEntries(std::move(entries));
        }
      },
      128);
  section.reset();

  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("datagen.datasets").Add();
  registry.counter("datagen.users").Add(config.num_users);
  registry.counter("datagen.restaurants").Add(config.num_restaurants);
  registry.counter("datagen.reviews").Add(dataset.opinions.review_count());
  return dataset;
}

}  // namespace podium::datagen
