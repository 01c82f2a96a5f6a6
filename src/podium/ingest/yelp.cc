#include "podium/ingest/yelp.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <unordered_map>

#include "podium/datagen/vocabularies.h"
#include "podium/json/parser.h"
#include "podium/obs/trace.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/math_util.h"
#include "podium/util/string_util.h"

namespace podium::ingest {

namespace {

struct Business {
  opinion::DestinationId destination = opinion::kInvalidDestination;
  std::string city;
  std::vector<std::string> categories;
};

struct RawReview {
  std::string user_id;
  opinion::DestinationId destination = opinion::kInvalidDestination;
  int stars = 0;
  int useful = 0;
  std::vector<opinion::TopicMention> topics;
  std::string city;  // of the business, for home-city inference
};

/// Calls `handler(value)` for every non-empty line of a JSON-lines file.
template <typename Handler>
Status ForEachJsonLine(const std::string& path, Handler&& handler) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file: " + path);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (util::StripWhitespace(line).empty()) continue;
    Result<json::Value> value = json::Parse(line);
    if (!value.ok()) {
      return Status::ParseError(util::StringPrintf(
          "%s:%zu: %s", path.c_str(), line_number,
          value.status().message().c_str()));
    }
    PODIUM_RETURN_IF_ERROR(handler(value.value()));
  }
  if (in.bad()) return Status::IoError("error reading file: " + path);
  return Status::Ok();
}

Result<std::string> RequiredString(const json::Object& object,
                                   const char* key) {
  const json::Value* value = object.Find(key);
  if (value == nullptr || !value->is_string()) {
    return Status::ParseError(std::string("missing string field '") + key +
                              "'");
  }
  return value->AsString();
}

double NumberOr(const json::Object& object, const char* key,
                double fallback) {
  const json::Value* value = object.Find(key);
  return value != nullptr && value->is_number() ? value->AsNumber()
                                                : fallback;
}

/// Case-insensitive substring search (topic keywords in review text).
bool ContainsNoCase(const std::string& haystack, const std::string& needle) {
  return util::AsciiToLower(haystack).find(util::AsciiToLower(needle)) !=
         std::string::npos;
}

}  // namespace

Result<YelpDataset> IngestYelp(const std::string& business_path,
                               const std::string& review_path,
                               const std::string& user_path,
                               const YelpIngestOptions& options) {
  obs::Span ingest_span("ingest.yelp");
  YelpDataset dataset;

  // --- Topic vocabulary -----------------------------------------------------
  std::vector<std::string> topics;
  if (options.max_topics > 0) {
    topics = datagen::TopicNames(options.max_topics);
    for (const std::string& topic : topics) {
      dataset.opinions.InternTopic(topic);
    }
  }

  // --- businesses -----------------------------------------------------------
  std::optional<obs::Span> section;
  section.emplace("ingest.businesses");
  std::unordered_map<std::string, Business> businesses;
  PODIUM_RETURN_IF_ERROR(ForEachJsonLine(
      business_path, [&](const json::Value& value) -> Status {
        if (!value.is_object()) {
          return Status::ParseError("business line is not an object");
        }
        const json::Object& object = value.AsObject();
        Result<std::string> id = RequiredString(object, "business_id");
        if (!id.ok()) return id.status();

        // "categories" is a comma-separated string (may be null).
        std::vector<std::string> categories;
        if (const json::Value* cats = object.Find("categories");
            cats != nullptr && cats->is_string()) {
          for (const std::string& piece : util::Split(cats->AsString(), ',')) {
            const std::string_view stripped = util::StripWhitespace(piece);
            if (!stripped.empty()) categories.emplace_back(stripped);
          }
        }
        if (!options.required_category.empty() &&
            std::find(categories.begin(), categories.end(),
                      options.required_category) == categories.end()) {
          return Status::Ok();  // filtered out
        }

        Business business;
        business.city =
            RequiredString(object, "city").value_or("unknown");
        business.categories = categories;
        opinion::Destination destination;
        destination.name =
            RequiredString(object, "name").value_or(id.value());
        destination.city = business.city;
        destination.categories = categories;
        business.destination =
            dataset.opinions.AddDestination(std::move(destination));
        businesses.emplace(std::move(id).value(), std::move(business));
        ++dataset.businesses_kept;
        return Status::Ok();
      }));

  // --- users (activity ranking) ----------------------------------------------
  // user.json carries review_count; the paper keeps the most active.
  section.emplace("ingest.users");
  std::vector<std::pair<std::string, double>> activity;
  PODIUM_RETURN_IF_ERROR(ForEachJsonLine(
      user_path, [&](const json::Value& value) -> Status {
        if (!value.is_object()) {
          return Status::ParseError("user line is not an object");
        }
        const json::Object& object = value.AsObject();
        Result<std::string> id = RequiredString(object, "user_id");
        if (!id.ok()) return id.status();
        activity.emplace_back(std::move(id).value(),
                              NumberOr(object, "review_count", 0.0));
        return Status::Ok();
      }));
  std::stable_sort(activity.begin(), activity.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (options.max_users > 0 && activity.size() > options.max_users) {
    activity.resize(options.max_users);
  }
  std::unordered_map<std::string, std::vector<RawReview>> reviews_by_user;
  for (const auto& [id, count] : activity) {
    reviews_by_user.emplace(id, std::vector<RawReview>{});
  }

  // --- reviews ---------------------------------------------------------------
  section.emplace("ingest.reviews");
  PODIUM_RETURN_IF_ERROR(ForEachJsonLine(
      review_path, [&](const json::Value& value) -> Status {
        if (!value.is_object()) {
          return Status::ParseError("review line is not an object");
        }
        const json::Object& object = value.AsObject();
        Result<std::string> user_id = RequiredString(object, "user_id");
        if (!user_id.ok()) return user_id.status();
        auto user_it = reviews_by_user.find(user_id.value());
        if (user_it == reviews_by_user.end()) return Status::Ok();
        Result<std::string> business_id =
            RequiredString(object, "business_id");
        if (!business_id.ok()) return business_id.status();
        auto business_it = businesses.find(business_id.value());
        if (business_it == businesses.end()) return Status::Ok();

        RawReview review;
        review.destination = business_it->second.destination;
        review.city = business_it->second.city;
        review.stars = static_cast<int>(
            util::Clamp(NumberOr(object, "stars", 0.0), 1.0, 5.0));
        review.useful =
            static_cast<int>(std::max(0.0, NumberOr(object, "useful", 0.0)));
        if (!topics.empty()) {
          if (const json::Value* text = object.Find("text");
              text != nullptr && text->is_string()) {
            const opinion::Sentiment sentiment =
                review.stars <= 2 ? opinion::Sentiment::kNegative
                                  : opinion::Sentiment::kPositive;
            for (opinion::TopicId t = 0; t < topics.size(); ++t) {
              if (ContainsNoCase(text->AsString(), topics[t])) {
                review.topics.push_back({t, sentiment});
              }
            }
          }
        }
        user_it->second.push_back(std::move(review));
        return Status::Ok();
      }));

  // --- profile derivation (Section 8.1) ---------------------------------------
  section.emplace("ingest.profiles");
  PropertyTable& properties = dataset.repository.properties();
  std::unordered_map<std::string, PropertyId> avg_property;
  std::unordered_map<std::string, PropertyId> freq_property;
  std::unordered_map<std::string, PropertyId> enthusiasm_property;
  auto property_for = [&properties](
                          std::unordered_map<std::string, PropertyId>& cache,
                          const std::string& prefix,
                          const std::string& category,
                          PropertyKind kind = PropertyKind::kScore) {
    auto it = cache.find(category);
    if (it != cache.end()) return it->second;
    const PropertyId id = properties.Intern(prefix + category, kind);
    cache.emplace(category, id);
    return id;
  };

  for (const auto& [user_id, count] : activity) {
    const std::vector<RawReview>& reviews = reviews_by_user[user_id];
    if (reviews.size() < options.min_reviews_per_user) continue;

    Result<UserId> added = dataset.repository.AddUser(user_id);
    if (!added.ok()) return added.status();
    const UserId user = added.value();

    struct Aggregate {
      std::uint32_t count = 0;
      double rating_sum = 0.0;
    };
    std::map<std::string, Aggregate> per_category;
    std::map<std::string, std::uint32_t> city_counts;
    double total_rating = 0.0;
    for (const RawReview& review : reviews) {
      total_rating += static_cast<double>(review.stars);
      ++city_counts[review.city];
      opinion::Review stored;
      stored.user = user;
      stored.destination = review.destination;
      stored.rating = review.stars;
      stored.useful_votes = review.useful;
      stored.topics = review.topics;
      PODIUM_RETURN_IF_ERROR(dataset.opinions.AddReview(std::move(stored)));
      ++dataset.reviews_kept;
      // Category aggregation via the destination's category list.
      const opinion::Destination& destination =
          dataset.opinions.destination(review.destination);
      for (const std::string& category : destination.categories) {
        if (category == options.required_category) continue;  // trivial
        Aggregate& aggregate = per_category[category];
        ++aggregate.count;
        aggregate.rating_sum += static_cast<double>(review.stars);
      }
    }
    if (reviews.empty()) continue;
    const double overall_avg =
        total_rating / static_cast<double>(reviews.size());

    std::vector<PropertyScore> entries;
    entries.reserve(3 * per_category.size() + 1);
    for (const auto& [category, aggregate] : per_category) {
      const double category_avg =
          aggregate.rating_sum / static_cast<double>(aggregate.count);
      entries.push_back(PropertyScore{
          property_for(avg_property, "avgRating ", category),
          util::Clamp(category_avg / overall_avg - 0.5, 0.0, 1.0)});
      entries.push_back(PropertyScore{
          property_for(freq_property, "visitFreq ", category),
          static_cast<double>(aggregate.count) /
              static_cast<double>(reviews.size())});
      if (options.derive_enthusiasm) {
        entries.push_back(PropertyScore{
            property_for(enthusiasm_property, "enthusiasm ", category),
            aggregate.rating_sum / total_rating});
      }
    }
    if (options.infer_home_city && !city_counts.empty()) {
      const auto modal = std::max_element(
          city_counts.begin(), city_counts.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      entries.push_back(PropertyScore{
          properties.Intern("livesIn " + modal->first,
                            PropertyKind::kBoolean),
          1.0});
    }
    dataset.repository.mutable_user(user).ReplaceEntries(std::move(entries));
  }
  section.reset();

  if (telemetry::Enabled()) {
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.counter("ingest.yelp.runs").Add();
    registry.counter("ingest.yelp.businesses").Add(dataset.businesses_kept);
    registry.counter("ingest.yelp.reviews").Add(dataset.reviews_kept);
    registry.counter("ingest.yelp.users")
        .Add(dataset.repository.user_count());
  }
  return dataset;
}

}  // namespace podium::ingest
