// podium — command-line front end to the library (the prototype's back
// end without the web UI).
//
// Commands:
//   podium groups  --profiles=FILE [--bucket=METHOD] [--buckets=K]
//       List the derived simple groups with their sizes.
//   podium select  --profiles=FILE [--budget=B] [--weights=Iden|LBS|EBS]
//                  [--coverage=Single|Prop] [--bucket=METHOD]
//                  [--must-have=LABEL;...] [--must-not=LABEL;...]
//                  [--priority=LABEL;...] [--json] [--html=FILE]
//                  [--timing] [--telemetry-out=FILE]
//       Select a diverse user subset and print the explanation report
//       (or a JSON document with --json). The customization lists take
//       group labels as printed by `podium groups`, ';'-separated.
//       --timing prints a span/counter summary after the report;
//       --telemetry-out writes the full telemetry JSON export
//       (schema in DESIGN.md §11).
//   podium suggest --profiles=FILE [--budget=B] [--max=N]
//       Select, then print refinement suggestions (groups to prioritize,
//       exclude or stop diversifying on) with rationales.
//   podium run-config --profiles=FILE --configs=FILE [--name=CONFIG]
//       Run a named diversification configuration (Section 7's
//       administrator-provided configs; see core/configuration.h for the
//       JSON schema). Without --name, every configuration runs.
//   podium ingest-yelp --business=FILE --review=FILE --user=FILE
//                      --out=FILE [--max-users=N]
//       Build a profile repository from a copy of the Yelp Open Dataset
//       (the paper's real evaluation data) and save it as JSON/CSV.
//   podium convert --profiles=FILE --out=FILE
//       Convert between the JSON and CSV repository formats (direction
//       inferred from the file extensions).
//
// Profiles are read from JSON (see ParseRepositoryJson) or CSV (long form)
// depending on the extension.
//
// Every command accepts --threads=N to size the parallel execution
// engine's thread pool (0 = automatic: the PODIUM_THREADS environment
// variable, then the hardware concurrency).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/common/flags.h"
#include "podium/core/podium.h"
#include "podium/ingest/yelp.h"
#include "podium/json/writer.h"
#include "podium/obs/export.h"
#include "podium/obs/log.h"
#include "podium/util/string_util.h"
#include "podium/util/thread_pool.h"

namespace {

using podium::util::EndsWith;
using podium::util::Split;

template <typename T>
T Unwrap(podium::Result<T> result) {
  if (!result.ok()) {
    std::cerr << "podium: " << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

void Check(const podium::Status& status) {
  if (!status.ok()) {
    std::cerr << "podium: " << status << "\n";
    std::exit(1);
  }
}

podium::ProfileRepository LoadRepository(const std::string& path) {
  if (EndsWith(path, ".csv")) {
    return Unwrap(podium::LoadRepositoryCsv(path));
  }
  return Unwrap(podium::LoadRepositoryJson(path));
}

/// Resolves ';'-separated group labels to ids; aborts on unknown labels.
std::vector<podium::GroupId> ResolveGroups(
    const podium::DiversificationInstance& instance,
    const std::string& labels) {
  std::vector<podium::GroupId> groups;
  if (labels.empty()) return groups;
  for (const std::string& label : Split(labels, ';')) {
    if (label.empty()) continue;
    podium::GroupId found = podium::kInvalidGroup;
    for (podium::GroupId g = 0; g < instance.groups().group_count(); ++g) {
      if (instance.groups().label(g) == label) {
        found = g;
        break;
      }
    }
    if (found == podium::kInvalidGroup) {
      std::cerr << "podium: unknown group label '" << label
                << "' (run `podium groups` to list labels)\n";
      std::exit(1);
    }
    groups.push_back(found);
  }
  return groups;
}

podium::DiversificationInstance BuildInstance(
    const podium::ProfileRepository& repository, podium::bench::Flags& flags,
    std::size_t budget) {
  podium::InstanceOptions options;
  options.grouping.bucket_method = flags.String("bucket", "quantile");
  options.grouping.max_buckets =
      static_cast<int>(flags.Int("buckets", 3));
  options.weight_kind =
      Unwrap(podium::ParseWeightKind(flags.String("weights", "LBS")));
  options.coverage_kind =
      Unwrap(podium::ParseCoverageKind(flags.String("coverage", "Single")));
  options.budget = budget;
  return Unwrap(podium::DiversificationInstance::Build(repository, options));
}

int RunGroups(podium::bench::Flags& flags) {
  const std::string path = flags.String("profiles", "");
  if (path.empty()) {
    std::cerr << "podium groups: --profiles=FILE is required\n";
    return 2;
  }
  const podium::ProfileRepository repository = LoadRepository(path);
  const podium::DiversificationInstance instance =
      BuildInstance(repository, flags, /*budget=*/8);
  flags.CheckConsumed();

  std::printf("%zu users, %zu properties, %zu groups\n\n",
              repository.user_count(), repository.property_count(),
              instance.groups().group_count());
  for (podium::GroupId g : instance.groups().GroupsBySizeDescending()) {
    std::printf("%8zu  %s\n", instance.groups().group_size(g),
                instance.groups().label(g).c_str());
  }
  return 0;
}

podium::json::Value SelectionToJson(
    const podium::DiversificationInstance& instance,
    const podium::Selection& selection) {
  podium::json::Object root;
  root.Set("score", podium::json::Value(selection.score));
  podium::json::Array users;
  for (podium::UserId u : selection.users) {
    const podium::UserExplanation explanation =
        podium::ExplainUser(instance, u);
    podium::json::Object user;
    user.Set("name", podium::json::Value(explanation.name));
    podium::json::Array groups;
    for (const podium::GroupExplanation& g : explanation.groups) {
      podium::json::Object group;
      group.Set("label", podium::json::Value(g.label));
      group.Set("weight", podium::json::Value(g.weight));
      group.Set("cov", podium::json::Value(
                           static_cast<double>(g.required_coverage)));
      groups.emplace_back(std::move(group));
    }
    user.Set("groups", podium::json::Value(std::move(groups)));
    users.emplace_back(std::move(user));
  }
  root.Set("users", podium::json::Value(std::move(users)));
  return podium::json::Value(std::move(root));
}

int RunSelect(podium::bench::Flags& flags) {
  const std::string path = flags.String("profiles", "");
  if (path.empty()) {
    std::cerr << "podium select: --profiles=FILE is required\n";
    return 2;
  }
  const auto budget = static_cast<std::size_t>(flags.Int("budget", 8));
  const bool timing = flags.Bool("timing", false);
  const std::string telemetry_out = flags.String("telemetry-out", "");
  const podium::ProfileRepository repository = LoadRepository(path);
  const podium::DiversificationInstance instance =
      BuildInstance(repository, flags, budget);

  podium::CustomizationFeedback feedback;
  feedback.must_have = ResolveGroups(instance, flags.String("must-have", ""));
  feedback.must_not = ResolveGroups(instance, flags.String("must-not", ""));
  feedback.priority = ResolveGroups(instance, flags.String("priority", ""));
  const bool as_json = flags.Bool("json", false);
  const std::string html_path = flags.String("html", "");
  flags.CheckConsumed();

  podium::Selection selection;
  if (feedback.must_have.empty() && feedback.must_not.empty() &&
      feedback.priority.empty()) {
    selection = Unwrap(podium::GreedySelector().Select(instance, budget));
  } else {
    podium::CustomSelection custom =
        Unwrap(podium::SelectCustomized(instance, feedback, budget));
    selection = std::move(custom.selection);
    if (!as_json) {
      std::printf("customized: pool %zu users, priority score %s\n\n",
                  custom.refined_pool_size,
                  podium::util::FormatDouble(custom.score.priority).c_str());
    }
  }

  if (!html_path.empty()) {
    Check(podium::WriteHtmlReport(instance, selection, html_path));
    std::printf("wrote %s\n", html_path.c_str());
  }
  if (as_json) {
    podium::json::WriteOptions options;
    options.indent = 2;
    std::printf("%s\n",
                podium::json::Write(SelectionToJson(instance, selection),
                                    options)
                    .c_str());
  } else {
    std::printf("%s", podium::RenderReport(podium::BuildSelectionReport(
                          instance, selection))
                          .c_str());
  }
  if (timing) {
    std::printf("\n-- timing --\n%s",
                podium::obs::RenderTimingSummary().c_str());
  }
  if (!telemetry_out.empty()) {
    Check(podium::obs::WriteTelemetryJson(telemetry_out));
    std::printf("wrote telemetry to %s\n", telemetry_out.c_str());
  }
  return 0;
}

int RunIngestYelp(podium::bench::Flags& flags) {
  const std::string business = flags.String("business", "");
  const std::string review = flags.String("review", "");
  const std::string user = flags.String("user", "");
  const std::string out = flags.String("out", "");
  podium::ingest::YelpIngestOptions options;
  options.max_users =
      static_cast<std::size_t>(flags.Int("max-users", 60000));
  flags.CheckConsumed();
  if (business.empty() || review.empty() || user.empty() || out.empty()) {
    std::cerr << "podium ingest-yelp: --business, --review, --user and "
                 "--out are required\n";
    return 2;
  }
  const podium::ingest::YelpDataset data =
      Unwrap(podium::ingest::IngestYelp(business, review, user, options));
  std::printf("ingested %zu businesses, %zu reviews, %zu users "
              "(%zu properties)\n",
              data.businesses_kept, data.reviews_kept,
              data.repository.user_count(),
              data.repository.property_count());
  if (EndsWith(out, ".csv")) {
    Check(podium::SaveRepositoryCsv(data.repository, out));
  } else {
    Check(podium::SaveRepositoryJson(data.repository, out));
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int RunConvert(podium::bench::Flags& flags) {
  const std::string in = flags.String("profiles", "");
  const std::string out = flags.String("out", "");
  flags.CheckConsumed();
  if (in.empty() || out.empty()) {
    std::cerr << "podium convert: --profiles=FILE and --out=FILE required\n";
    return 2;
  }
  const podium::ProfileRepository repository = LoadRepository(in);
  if (EndsWith(out, ".csv")) {
    Check(podium::SaveRepositoryCsv(repository, out));
  } else {
    Check(podium::SaveRepositoryJson(repository, out));
  }
  std::printf("wrote %s (%zu users)\n", out.c_str(),
              repository.user_count());
  return 0;
}

int RunSuggest(podium::bench::Flags& flags) {
  const std::string path = flags.String("profiles", "");
  if (path.empty()) {
    std::cerr << "podium suggest: --profiles=FILE is required\n";
    return 2;
  }
  const auto budget = static_cast<std::size_t>(flags.Int("budget", 8));
  const auto max = static_cast<std::size_t>(flags.Int("max", 10));
  const podium::ProfileRepository repository = LoadRepository(path);
  const podium::DiversificationInstance instance =
      BuildInstance(repository, flags, budget);
  flags.CheckConsumed();

  const podium::Selection selection =
      Unwrap(podium::GreedySelector().Select(instance, budget));
  std::printf("selected %zu users (score %s); suggested refinements:\n\n",
              selection.users.size(),
              podium::util::FormatDouble(selection.score).c_str());
  podium::RefinementOptions options;
  options.max_suggestions = max;
  for (const podium::RefinementSuggestion& suggestion :
       podium::SuggestRefinements(instance, selection, options)) {
    std::printf("  [%-10s] %s\n               %s\n",
                std::string(podium::RefinementKindName(suggestion.kind))
                    .c_str(),
                suggestion.label.c_str(), suggestion.rationale.c_str());
  }
  return 0;
}

int RunConfigCommand(podium::bench::Flags& flags) {
  const std::string profiles = flags.String("profiles", "");
  const std::string configs_path = flags.String("configs", "");
  const std::string only = flags.String("name", "");
  flags.CheckConsumed();
  if (profiles.empty() || configs_path.empty()) {
    std::cerr << "podium run-config: --profiles=FILE and --configs=FILE "
                 "are required\n";
    return 2;
  }
  const podium::ProfileRepository repository = LoadRepository(profiles);
  const std::vector<podium::DiversificationConfig> configs =
      Unwrap(podium::LoadConfigurationsFile(configs_path));

  bool ran_any = false;
  for (const podium::DiversificationConfig& config : configs) {
    if (!only.empty() && config.name != only) continue;
    ran_any = true;
    std::printf("=== %s ===\n%s\n\n", config.name.c_str(),
                config.description.c_str());
    const podium::ConfiguredSelection result =
        Unwrap(podium::RunConfiguration(repository, config));
    if (result.custom_score.has_value()) {
      std::printf("customized: priority score %s\n\n",
                  podium::util::FormatDouble(result.custom_score->priority)
                      .c_str());
    }
    std::printf("%s\n",
                podium::RenderReport(
                    podium::BuildSelectionReport(result.instance,
                                                 result.selection))
                    .c_str());
  }
  if (!ran_any) {
    std::cerr << "podium run-config: no configuration named '" << only
              << "'\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    // Usage text is for humans on a terminal, not log pipelines.
    // podium-lint: allow(raw-stderr)
    std::fprintf(stderr,
                 "usage: podium <groups|select|suggest|run-config|ingest-yelp|convert> [--flags]\n"
                 "see the header of tools/podium_cli.cc for details\n");
    return 2;
  }
  const std::string command = argv[1];
  podium::bench::Flags flags(argc - 1, argv + 1);
  // Every command honors --threads (0 = automatic: PODIUM_THREADS, then
  // hardware concurrency).
  const std::int64_t threads = flags.Int("threads", 0);
  if (threads < 0) {
    podium::obs::LogError("--threads must be >= 0");
    return 2;
  }
  podium::util::ThreadPool::SetGlobalThreadCount(
      static_cast<std::size_t>(threads));
  if (command == "groups") return RunGroups(flags);
  if (command == "select") return RunSelect(flags);
  if (command == "suggest") return RunSuggest(flags);
  if (command == "run-config") return RunConfigCommand(flags);
  if (command == "ingest-yelp") return RunIngestYelp(flags);
  if (command == "convert") return RunConvert(flags);
  podium::obs::LogError("unknown command").Str("command", command);
  return 2;
}
