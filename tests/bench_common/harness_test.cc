#include "bench/common/harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "podium/json/parser.h"
#include "podium/telemetry/export.h"
#include "podium/telemetry/telemetry.h"
#include "tests/testing/table2.h"

namespace podium::bench {
namespace {

/// Builds argv from string literals; argv[0] is the program name.
class ArgvFixture {
 public:
  explicit ArgvFixture(std::vector<std::string> args)
      : storage_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("prog"));
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
  }
  int argc() { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

/// Shared repository: the instance keeps a pointer into it, so it must
/// outlive every instance the tests build.
const ProfileRepository& Table2Repo() {
  static const ProfileRepository* repo =  // podium-lint: allow(raw-new)
      new ProfileRepository(testing::MakeTable2Repository());
  return *repo;
}

Result<DiversificationInstance> MakeTable2Instance(std::size_t budget) {
  return DiversificationInstance::FromGroups(
      Table2Repo(), testing::MakeTable2Groups(Table2Repo()), WeightKind::kLbs,
      CoverageKind::kSingle, budget);
}

TEST(HarnessTest, StandardSelectorsAreThePaperFour) {
  const auto selectors = StandardSelectors(1);
  ASSERT_EQ(selectors.size(), 4u);
  EXPECT_EQ(selectors[0]->Name(), "Podium");
  EXPECT_EQ(selectors[1]->Name(), "Random");
  EXPECT_EQ(selectors[2]->Name(), "Clustering");
  EXPECT_EQ(selectors[3]->Name(), "Distance");
}

TEST(HarnessTest, RunSelectorsProducesTimedResults) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo,
                                          testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  const auto selectors = StandardSelectors(1);
  const auto runs = RunSelectors(selectors, instance.value(), 2);
  ASSERT_EQ(runs.size(), 4u);
  for (const TimedSelection& run : runs) {
    EXPECT_FALSE(run.name.empty());
    EXPECT_EQ(run.selection.users.size(), 2u);
    EXPECT_GE(run.seconds, 0.0);
  }
  // Podium leads its own objective.
  EXPECT_GE(runs[0].selection.score, runs[1].selection.score);
}

TEST(HarnessTest, InitTelemetryConsumesFlagAndEnables) {
  telemetry::SetEnabled(false);
  ArgvFixture args({"--telemetry-out=/tmp/out.json"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(InitTelemetry(flags), "/tmp/out.json");
  EXPECT_TRUE(telemetry::Enabled());
  flags.CheckConsumed();  // --telemetry-out was consumed: no exit
  telemetry::SetEnabled(false);
  telemetry::ResetAllTelemetry();
}

TEST(HarnessTest, InitTelemetryDefaultsToNoExport) {
  ArgvFixture args({});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(InitTelemetry(flags), "");
  telemetry::SetEnabled(false);
  telemetry::ResetAllTelemetry();
}

TEST(HarnessTest, RunSelectorsSplitsSetupFromSelection) {
  telemetry::SetEnabled(true);
  telemetry::ResetAllTelemetry();
  Result<DiversificationInstance> instance = MakeTable2Instance(2);
  ASSERT_TRUE(instance.ok());
  const auto runs =
      RunSelectors(StandardSelectors(1), instance.value(), 2);
  ASSERT_EQ(runs.size(), 4u);
  for (const TimedSelection& run : runs) {
    EXPECT_GE(run.setup_seconds, 0.0);
    EXPECT_NEAR(run.setup_seconds + run.select_seconds, run.seconds, 1e-9);
  }
  // Podium (the GreedySelector) is instrumented: its setup phases were
  // recorded and attributed, leaving select_seconds strictly inside the
  // whole-call time.
  EXPECT_GT(runs[0].setup_seconds, 0.0);
  EXPECT_LT(runs[0].select_seconds, runs[0].seconds);
  telemetry::SetEnabled(false);
  telemetry::ResetAllTelemetry();
}

// The exported document's layout is a stable, versioned schema; this is
// the golden check for its skeleton (top-level keys, schema header, and
// the keys of a span histogram). Schema changes must update
// kTelemetrySchemaVersion and DESIGN.md in the same commit as this test.
TEST(HarnessTest, ExportedTelemetryJsonMatchesGoldenSchema) {
  telemetry::SetEnabled(true);
  telemetry::ResetAllTelemetry();
  Result<DiversificationInstance> instance = MakeTable2Instance(2);
  ASSERT_TRUE(instance.ok());
  RunSelectors(StandardSelectors(1), instance.value(), 2);

  const std::string path =
      ::testing::TempDir() + "/podium_harness_telemetry.json";
  ASSERT_TRUE(telemetry::WriteTelemetryJson(path).ok());
  Result<json::Value> parsed = json::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed.value().is_object());
  const json::Object& root = parsed.value().AsObject();

  const std::vector<std::string> golden_keys = {"schema", "counters",
                                                "gauges", "histograms"};
  ASSERT_EQ(root.size(), golden_keys.size());
  for (std::size_t i = 0; i < golden_keys.size(); ++i) {
    EXPECT_EQ(root.entries()[i].first, golden_keys[i]);
  }
  const json::Object& schema = root.Find("schema")->AsObject();
  EXPECT_EQ(schema.Find("name")->AsString(), "podium.telemetry");
  EXPECT_EQ(schema.Find("version")->AsNumber(),
            telemetry::kTelemetrySchemaVersion);
  // Every selector's span is exported as a histogram.
  const json::Object& histograms = root.Find("histograms")->AsObject();
  for (const char* span : {"select.Podium", "select.Random",
                           "select.Clustering", "select.Distance"}) {
    ASSERT_NE(histograms.Find(telemetry::SpanMetricName(span)), nullptr)
        << span;
  }
  const json::Object& rounds =
      histograms.Find(telemetry::SpanMetricName("greedy.rounds"))->AsObject();
  const std::vector<std::string> golden_histogram_keys = {"bounds", "counts",
                                                          "count", "sum"};
  ASSERT_EQ(rounds.size(), golden_histogram_keys.size());
  for (std::size_t i = 0; i < golden_histogram_keys.size(); ++i) {
    EXPECT_EQ(rounds.entries()[i].first, golden_histogram_keys[i]);
  }
  EXPECT_EQ(rounds.Find("count")->AsNumber(), 1.0);
  std::remove(path.c_str());
  telemetry::SetEnabled(false);
  telemetry::ResetAllTelemetry();
}

}  // namespace
}  // namespace podium::bench
