#include "podium/lint/lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace podium::lint {
namespace {

#ifndef PODIUM_SOURCE_DIR
#error "PODIUM_SOURCE_DIR must point at the repository root"
#endif

std::string FixturePath(const std::string& name) {
  return std::string(PODIUM_SOURCE_DIR) + "/tests/lint/fixtures/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints a fixture under a claimed path, so path-sensitive rules can be
/// driven from files that physically live in tests/lint/fixtures/.
std::vector<Finding> LintFixtureAs(const std::string& name,
                                   const std::string& claimed_path) {
  return LintSource(claimed_path, ReadFixture(name));
}

// --- banned-function -------------------------------------------------------

TEST(BannedFunctionRule, FlagsEveryCall) {
  const std::vector<Finding> findings =
      LintFixtureAs("banned_function_hit.cc", "bench/fixture.cc");
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "banned-function");
  }
  EXPECT_NE(findings[0].message.find("'atoi'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("'srand'"), std::string::npos);
  EXPECT_NE(findings[2].message.find("'rand'"), std::string::npos);
  EXPECT_NE(findings[3].message.find("'time'"), std::string::npos);
}

TEST(BannedFunctionRule, HonorsSameLineAndPrecedingLineSuppressions) {
  EXPECT_TRUE(LintFixtureAs("banned_function_suppressed.cc",
                            "bench/fixture.cc")
                  .empty());
}

TEST(BannedFunctionRule, IgnoresCommentsStringsAndSubstrings) {
  EXPECT_TRUE(
      LintFixtureAs("banned_function_clean.cc", "bench/fixture.cc").empty());
}

// --- include-first ---------------------------------------------------------

TEST(IncludeFirstRule, FlagsOwnHeaderNotFirst) {
  const std::vector<Finding> findings = LintFixtureAs(
      "include_first_hit.cc", "src/podium/json/json.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-first");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(IncludeFirstRule, AcceptsOwnHeaderFirst) {
  EXPECT_TRUE(LintFixtureAs("include_first_clean.cc",
                            "src/podium/json/json.cc")
                  .empty());
}

TEST(IncludeFirstRule, OnlyAppliesUnderSrc) {
  // The same out-of-order content is fine for a tool main: it has no own
  // header to put first.
  EXPECT_TRUE(
      LintFixtureAs("include_first_hit.cc", "tools/widget.cc").empty());
}

// --- test-internal-include -------------------------------------------------

TEST(TestInternalIncludeRule, FlagsInternalHeaderFromTests) {
  const std::vector<Finding> findings = LintFixtureAs(
      "test_internal_include_hit.cc", "tests/bucketing/fixture_test.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "test-internal-include");
  EXPECT_NE(findings[0].message.find("internal.h"), std::string::npos);
}

TEST(TestInternalIncludeRule, AllowsInternalHeaderWithinSrc) {
  // Library code may use its own internal headers; only tests are barred.
  EXPECT_TRUE(LintFixtureAs("test_internal_include_hit.cc",
                            "src/podium/bucketing/kde.cc")
                  .empty());
}

TEST(TestInternalIncludeRule, AcceptsPublicHeaders) {
  EXPECT_TRUE(LintFixtureAs("test_internal_include_clean.cc",
                            "tests/bucketing/fixture_test.cc")
                  .empty());
}

// --- todo-owner ------------------------------------------------------------

TEST(TodoOwnerRule, FlagsOwnerlessTodo) {
  const std::vector<Finding> findings =
      LintFixtureAs("todo_owner_hit.cc", "src/podium/core/fixture.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "todo-owner");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(TodoOwnerRule, HonorsSuppression) {
  EXPECT_TRUE(LintFixtureAs("todo_owner_suppressed.cc",
                            "src/podium/core/fixture.cc")
                  .empty());
}

TEST(TodoOwnerRule, AcceptsOwnedTodosAndNonMarkers) {
  EXPECT_TRUE(
      LintFixtureAs("todo_owner_clean.cc", "src/podium/core/fixture.cc")
          .empty());
}

// --- raw-new ---------------------------------------------------------------

TEST(RawNewRule, FlagsNewAndDelete) {
  const std::vector<Finding> findings =
      LintFixtureAs("raw_new_hit.cc", "src/podium/core/fixture.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "raw-new");
  EXPECT_NE(findings[0].message.find("'new'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("'delete'"), std::string::npos);
}

TEST(RawNewRule, HonorsSuppression) {
  EXPECT_TRUE(
      LintFixtureAs("raw_new_suppressed.cc", "src/podium/core/fixture.cc")
          .empty());
}

TEST(RawNewRule, IgnoresDeletedFunctionsAndOperatorOverloads) {
  EXPECT_TRUE(
      LintFixtureAs("raw_new_clean.cc", "src/podium/core/fixture.cc")
          .empty());
}

TEST(RawNewRule, ExemptsUtil) {
  // util/ owns the deliberate leak-on-purpose singleton pattern.
  EXPECT_TRUE(
      LintFixtureAs("raw_new_hit.cc", "src/podium/util/fixture.cc").empty());
}

// --- raw-stderr ------------------------------------------------------------

TEST(RawStderrRule, FlagsStderrWritesInServeAndTools) {
  for (const std::string path :
       {"src/podium/serve/fixture.cc", "tools/fixture.cc"}) {
    const std::vector<Finding> findings =
        LintFixtureAs("raw_stderr_hit.cc", path);
    ASSERT_EQ(findings.size(), 2u) << path;
    for (const Finding& finding : findings) {
      EXPECT_EQ(finding.rule, "raw-stderr");
      EXPECT_NE(finding.message.find("podium::obs::Log"), std::string::npos);
    }
  }
}

TEST(RawStderrRule, OnlyAppliesToServeAndTools) {
  // The bench harness and core library keep their plain stderr writes.
  EXPECT_TRUE(
      LintFixtureAs("raw_stderr_hit.cc", "bench/fixture.cc").empty());
  EXPECT_TRUE(
      LintFixtureAs("raw_stderr_hit.cc", "src/podium/core/fixture.cc")
          .empty());
}

TEST(RawStderrRule, HonorsSameLineAndPrecedingLineSuppressions) {
  EXPECT_TRUE(
      LintFixtureAs("raw_stderr_suppressed.cc", "tools/fixture.cc").empty());
}

TEST(RawStderrRule, IgnoresCommentsStringsAndOtherStreams) {
  EXPECT_TRUE(
      LintFixtureAs("raw_stderr_clean.cc", "tools/fixture.cc").empty());
}

// --- intrinsics-scope ------------------------------------------------------

TEST(IntrinsicsScopeRule, FlagsIncludeAndCastOutsideKernelLayer) {
  const std::vector<Finding> findings = LintFixtureAs(
      "intrinsics_scope_hit.cc", "src/podium/serve/fixture.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "intrinsics-scope");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("immintrin.h"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "intrinsics-scope");
  EXPECT_NE(findings[1].message.find("reinterpret_cast"),
            std::string::npos);
}

TEST(IntrinsicsScopeRule, ExemptsKernelsAndArena) {
  EXPECT_TRUE(LintFixtureAs("intrinsics_scope_hit.cc",
                            "src/podium/core/kernels.cc")
                  .empty());
  EXPECT_TRUE(LintFixtureAs("intrinsics_scope_hit.cc",
                            "src/podium/util/arena.h")
                  .empty());
}

TEST(IntrinsicsScopeRule, CoversShardLayer) {
  // shard/*.cc owns per-shard arenas but is not exempt: typed views come
  // from Arena::AllocateSpan<T>, never a local reinterpret_cast.
  const std::vector<Finding> findings = LintFixtureAs(
      "intrinsics_scope_hit.cc", "src/podium/shard/sharded_snapshot.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "intrinsics-scope");
  EXPECT_EQ(findings[1].rule, "intrinsics-scope");
}

TEST(IntrinsicsScopeRule, HonorsSuppression) {
  EXPECT_TRUE(LintFixtureAs("intrinsics_scope_suppressed.cc",
                            "src/podium/serve/fixture.cc")
                  .empty());
}

TEST(IntrinsicsScopeRule, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(LintFixtureAs("intrinsics_scope_clean.cc",
                            "src/podium/serve/fixture.cc")
                  .empty());
}

// --- guarded-member --------------------------------------------------------

TEST(GuardedMemberRule, FlagsUnannotatedNeighbours) {
  const std::vector<Finding> findings = LintFixtureAs(
      "guarded_member_hit.h", "src/podium/core/fixture.h");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "guarded-member");
  EXPECT_NE(findings[0].message.find("'total_'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("'calls_'"), std::string::npos);
}

TEST(GuardedMemberRule, HonorsSuppression) {
  EXPECT_TRUE(LintFixtureAs("guarded_member_suppressed.h",
                            "src/podium/core/fixture.h")
                  .empty());
}

TEST(GuardedMemberRule, AcceptsAnnotatedAndExemptMembers) {
  EXPECT_TRUE(
      LintFixtureAs("guarded_member_clean.h", "src/podium/core/fixture.h")
          .empty());
}

// --- layer-violation -------------------------------------------------------

TEST(LayerViolationRule, FlagsEveryIllegalEdgeByName) {
  const std::vector<Finding> findings = LintFixtureAs(
      "layer_violation_hit.cc", "src/podium/core/fixture.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "layer-violation");
  EXPECT_NE(findings[0].message.find("'core' -> 'serve'"),
            std::string::npos);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].rule, "layer-violation");
  EXPECT_NE(findings[1].message.find("'core' -> 'check'"),
            std::string::npos);
}

TEST(LayerViolationRule, AcceptsDeclaredEdges) {
  // core -> {groups, util} and same-module includes are DAG edges.
  EXPECT_TRUE(LintFixtureAs("layer_violation_clean.cc",
                            "src/podium/core/fixture.cc")
                  .empty());
}

TEST(LayerViolationRule, HonorsSuppression) {
  EXPECT_TRUE(LintFixtureAs("layer_violation_suppressed.cc",
                            "src/podium/core/fixture.cc")
                  .empty());
}

TEST(LayerViolationRule, ExemptsCodeAboveTheDag) {
  // tools/, tests/ and bench/ sit above the module DAG and may include
  // any module.
  for (const std::string path :
       {"tools/fixture.cc", "tests/core/fixture_test.cc",
        "bench/fixture.cc"}) {
    EXPECT_TRUE(LintFixtureAs("layer_violation_hit.cc", path).empty())
        << path;
  }
}

TEST(LayerViolationRule, FlagsModulesMissingFromTheDag) {
  const std::vector<Finding> findings = LintFixtureAs(
      "layer_violation_clean.cc", "src/podium/widget/widget.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-violation");
  EXPECT_NE(findings[0].message.find("not in the declared module DAG"),
            std::string::npos);
}

// The DAG holds without exceptions under src/: an edge a module needs is
// declared in kModuleDag, never suppressed in place.
TEST(LayerViolationRule, NoSuppressionsRemainUnderSrc) {
  const std::filesystem::path src =
      std::filesystem::path(PODIUM_SOURCE_DIR) / "src";
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str().find("allow(layer-violation)"), std::string::npos)
        << entry.path();
  }
}

// --- eintr-retry -----------------------------------------------------------

TEST(EintrRetryRule, FlagsDirectSyscallsInServe) {
  const std::vector<Finding> findings = LintFixtureAs(
      "eintr_retry_hit.cc", "src/podium/serve/fixture.cc");
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "eintr-retry");
    EXPECT_NE(finding.message.find("io_util.h"), std::string::npos);
  }
  EXPECT_NE(findings[0].message.find("recv()"), std::string::npos);
  EXPECT_NE(findings[1].message.find("write()"), std::string::npos);
  EXPECT_NE(findings[2].message.find("accept4()"), std::string::npos);
}

TEST(EintrRetryRule, OnlyAppliesToServe) {
  EXPECT_TRUE(
      LintFixtureAs("eintr_retry_hit.cc", "src/podium/core/fixture.cc")
          .empty());
  EXPECT_TRUE(
      LintFixtureAs("eintr_retry_hit.cc", "tools/fixture.cc").empty());
}

TEST(EintrRetryRule, ExemptsTheWrapperFile) {
  // io_util.h is the one serve/ file allowed to spell the syscalls out.
  EXPECT_TRUE(
      LintFixtureAs("eintr_retry_hit.cc", "src/podium/serve/io_util.h")
          .empty());
}

TEST(EintrRetryRule, HonorsSameLineAndPrecedingLineSuppressions) {
  EXPECT_TRUE(LintFixtureAs("eintr_retry_suppressed.cc",
                            "src/podium/serve/fixture.cc")
                  .empty());
}

TEST(EintrRetryRule, IgnoresWrappersCommentsStringsAndSubstrings) {
  EXPECT_TRUE(LintFixtureAs("eintr_retry_clean.cc",
                            "src/podium/serve/fixture.cc")
                  .empty());
}

// --- unnamed-mutex ---------------------------------------------------------

TEST(UnnamedMutexRule, FlagsMemberAndGlobalDeclarations) {
  const std::vector<Finding> findings = LintFixtureAs(
      "unnamed_mutex_hit.h", "src/podium/core/fixture.h");
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "unnamed-mutex");
    EXPECT_NE(finding.message.find("lock-class name"), std::string::npos);
  }
}

TEST(UnnamedMutexRule, AppliesToTestsToo) {
  // Coverage of the runtime detector must stay total; a test-only mutex
  // still takes part in lock ordering.
  EXPECT_EQ(
      LintFixtureAs("unnamed_mutex_hit.h", "tests/core/fixture_test.cc")
          .size(),
      2u);
}

TEST(UnnamedMutexRule, HonorsSuppression) {
  EXPECT_TRUE(LintFixtureAs("unnamed_mutex_suppressed.h",
                            "src/podium/core/fixture.h")
                  .empty());
}

TEST(UnnamedMutexRule, AcceptsNamedArrayAliasAndPointer) {
  // Arrays share the defaulted name by design; pointers and using-aliases
  // do not create a new lock.
  EXPECT_TRUE(
      LintFixtureAs("unnamed_mutex_clean.h", "src/podium/core/fixture.h")
          .empty());
}

// --- plumbing --------------------------------------------------------------

TEST(FormatFinding, MatchesGrepConvention) {
  Finding finding;
  finding.file = "src/a.cc";
  finding.line = 12;
  finding.rule = "raw-new";
  finding.message = "nope";
  EXPECT_EQ(FormatFinding(finding), "src/a.cc:12: raw-new: nope");
}

TEST(LintFile, ReportsMissingFile) {
  const Result<std::vector<Finding>> findings =
      LintFile(FixturePath("does_not_exist.cc"));
  ASSERT_FALSE(findings.ok());
  EXPECT_EQ(findings.status().code(), StatusCode::kIoError);
}

TEST(LintTree, WalksFixturesAndSortsFindings) {
  const Result<std::vector<Finding>> findings = LintTree(
      {std::string(PODIUM_SOURCE_DIR) + "/tests/lint/fixtures"}, {});
  ASSERT_TRUE(findings.ok()) << findings.status();
  // The *_hit fixtures alone contribute findings; sorted by path.
  EXPECT_GE(findings.value().size(), 9u);
  for (std::size_t i = 1; i < findings.value().size(); ++i) {
    EXPECT_LE(findings.value()[i - 1].file, findings.value()[i].file);
  }
}

TEST(LintTree, ExcludeSubstringSkipsFiles) {
  LintOptions options;
  options.exclude_substrings.push_back("tests/lint/fixtures");
  const Result<std::vector<Finding>> findings = LintTree(
      {std::string(PODIUM_SOURCE_DIR) + "/tests/lint/fixtures"}, options);
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_TRUE(findings.value().empty());
}

TEST(LintTree, ReportsMissingRoot) {
  const Result<std::vector<Finding>> findings =
      LintTree({"/nonexistent/podium"}, {});
  ASSERT_FALSE(findings.ok());
  EXPECT_EQ(findings.status().code(), StatusCode::kIoError);
}

// The capstone: the real tree must be clean, so a regression in any rule
// (or new offending code) fails the unit suite, not just the CI lint job.
TEST(LintTree, RepositoryIsClean) {
  const std::string root(PODIUM_SOURCE_DIR);
  LintOptions options;
  options.exclude_substrings.push_back("tests/lint/fixtures");
  const Result<std::vector<Finding>> findings =
      LintTree({root + "/src", root + "/tools", root + "/tests",
                root + "/bench", root + "/examples"},
               options);
  ASSERT_TRUE(findings.ok()) << findings.status();
  for (const Finding& finding : findings.value()) {
    ADD_FAILURE() << FormatFinding(finding);
  }
}

}  // namespace
}  // namespace podium::lint
