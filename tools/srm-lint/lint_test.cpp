// Unit tests for srm-lint against the fixture trees in fixtures/.
//
// SRM_LINT_FIXTURE_DIR is injected by CMake and points at the checked-in
// fixtures directory.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using srm::lint::Finding;
using srm::lint::run_lint;

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(SRM_LINT_FIXTURE_DIR) / name;
}

std::vector<Finding> findings_for_rule(const std::vector<Finding>& all,
                                       const std::string& rule) {
  std::vector<Finding> out;
  std::copy_if(all.begin(), all.end(), std::back_inserter(out),
               [&](const Finding& f) { return f.rule == rule; });
  return out;
}

bool has_finding(const std::vector<Finding>& all, const std::string& file,
                 int line, const std::string& rule) {
  return std::any_of(all.begin(), all.end(), [&](const Finding& f) {
    return f.file == file && f.line == line && f.rule == rule;
  });
}

TEST(SrmLint, CleanTreeHasNoFindings) {
  const auto all = run_lint(fixture("clean"));
  EXPECT_TRUE(all.empty()) << "unexpected findings:\n"
                           << [&] {
                                std::string s;
                                for (const auto& f : all) {
                                  s += srm::lint::format_finding(f) + "\n";
                                }
                                return s;
                              }();
}

TEST(SrmLint, SuppressionsSilenceEveryRule) {
  const auto all = run_lint(fixture("suppressed"));
  EXPECT_TRUE(all.empty()) << "suppressed tree should be clean; got "
                           << all.size() << " finding(s), first: "
                           << (all.empty()
                                   ? std::string()
                                   : srm::lint::format_finding(all.front()));
}

TEST(SrmLint, DetectsBannedRandom) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "banned-random");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_TRUE(has_finding(all, "core/bad_random.cpp", 6, "banned-random"));
  EXPECT_TRUE(has_finding(all, "core/bad_random.cpp", 10, "banned-random"));
}

TEST(SrmLint, DetectsLogDomainViolations) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "log-domain");
  ASSERT_EQ(hits.size(), 2u) << "tgamma and exp(lgamma) should both fire";
  EXPECT_TRUE(has_finding(all, "core/bad_gamma.cpp", 6, "log-domain"));
  EXPECT_TRUE(has_finding(all, "core/bad_gamma.cpp", 10, "log-domain"));
}

TEST(SrmLint, DetectsIostreamOutsideCliAndReport) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "iostream");
  ASSERT_EQ(hits.size(), 1u) << "cli/ and report/ must stay exempt";
  EXPECT_TRUE(has_finding(all, "mcmc/bad_cout.cpp", 6, "iostream"));
}

TEST(SrmLint, DetectsRawThreadOutsideRuntime) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "raw-thread");
  ASSERT_EQ(hits.size(), 2u) << "runtime/ must stay exempt";
  EXPECT_TRUE(has_finding(all, "mcmc/bad_thread.cpp", 7, "raw-thread"));
  EXPECT_TRUE(has_finding(all, "mcmc/bad_thread.cpp", 10, "raw-thread"));
}

TEST(SrmLint, RawThreadRuleExemptsRuntimeDirectory) {
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "raw-thread")) {
    EXPECT_NE(f.file.rfind("runtime/", 0), 0u)
        << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsHotStdFunctionInMcmcAndCore) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "hot-std-function");
  ASSERT_EQ(hits.size(), 2u) << "parameter type and local variable";
  EXPECT_TRUE(
      has_finding(all, "mcmc/bad_std_function.cpp", 5, "hot-std-function"));
  EXPECT_TRUE(
      has_finding(all, "mcmc/bad_std_function.cpp", 10, "hot-std-function"));
}

TEST(SrmLint, HotStdFunctionRuleScopedToMcmcAndCore) {
  // report/ok_std_function.cpp uses std::function legitimately and must
  // stay clean — only the sampler hot-path directories are in scope.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "hot-std-function")) {
    const bool in_scope = f.file.rfind("mcmc/", 0) == 0 ||
                          f.file.rfind("core/", 0) == 0;
    EXPECT_TRUE(in_scope) << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsNestedVectorMatrix) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "nested-vector-matrix");
  ASSERT_EQ(hits.size(), 2u) << "return type and local; flat vector exempt";
  EXPECT_TRUE(has_finding(all, "core/bad_nested_vector.cpp", 5,
                          "nested-vector-matrix"));
  EXPECT_TRUE(has_finding(all, "core/bad_nested_vector.cpp", 6,
                          "nested-vector-matrix"));
}

TEST(SrmLint, NestedVectorMatrixRuleScopedToCoreAndReport) {
  // diagnostics/ok_nested_vector.cpp keeps a ragged vector-of-vector and
  // must stay clean — only core/ and report/ are in scope.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "nested-vector-matrix")) {
    const bool in_scope = f.file.rfind("core/", 0) == 0 ||
                          f.file.rfind("report/", 0) == 0;
    EXPECT_TRUE(in_scope) << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsAdhocSerialization) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "adhoc-serialization");
  ASSERT_EQ(hits.size(), 2u)
      << "free definition and friend declaration fire; the shift-semantics "
         "operator<< (no ostream parameter) must stay clean";
  EXPECT_TRUE(
      has_finding(all, "core/bad_ostream.cpp", 9, "adhoc-serialization"));
  EXPECT_TRUE(
      has_finding(all, "core/bad_ostream.cpp", 15, "adhoc-serialization"));
}

TEST(SrmLint, AdhocSerializationExemptsReportAndArtifact) {
  // report/ok_ostream.cpp and artifact/ok_ostream.cpp both define stream
  // insertion operators and must stay clean — those layers own rendering
  // and canonical serialization respectively.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "adhoc-serialization")) {
    EXPECT_NE(f.file.rfind("report/", 0), 0u) << srm::lint::format_finding(f);
    EXPECT_NE(f.file.rfind("artifact/", 0), 0u)
        << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsFloatLiteralComparisons) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "float-compare");
  ASSERT_EQ(hits.size(), 2u) << "fp.hpp must stay exempt; int == is fine";
  EXPECT_TRUE(has_finding(all, "stats/bad_eq.cpp", 4, "float-compare"));
  EXPECT_TRUE(has_finding(all, "stats/bad_eq.cpp", 8, "float-compare"));
}

TEST(SrmLint, DetectsFamilyDispatchOutsideCore) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "family-dispatch");
  ASSERT_EQ(hits.size(), 2u)
      << "if-chain and switch-case enumerator mentions both fire; naming "
         "the enum type (parameters, declarations) stays clean";
  EXPECT_TRUE(has_finding(all, "serve/bad_family_dispatch.cpp", 14,
                          "family-dispatch"));
  EXPECT_TRUE(has_finding(all, "serve/bad_family_dispatch.cpp", 19,
                          "family-dispatch"));
}

TEST(SrmLint, FamilyDispatchRuleExemptsCoreDirectory) {
  // core/ok_family_dispatch.cpp dispatches on PriorKind enumerators inside
  // the directory that owns the registry and the family implementations —
  // the one place such dispatch is legal.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "family-dispatch")) {
    EXPECT_NE(f.file.rfind("core/", 0), 0u) << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsMissingExpectsInSiblingImpl) {
  const auto all = run_lint(fixture("violations"));
  // Weibull::cdf and log_halfnormal definitions lack SRM_EXPECTS; the
  // constructor has one and must not fire.
  EXPECT_TRUE(has_finding(all, "stats/bad_expects.cpp", 10, "expects"));
  EXPECT_TRUE(has_finding(all, "stats/bad_expects.cpp", 14, "expects"));
}

TEST(SrmLint, DetectsDeclarationWithNoImplementation) {
  const auto all = run_lint(fixture("violations"));
  EXPECT_TRUE(has_finding(all, "stats/bad_expects.hpp", 19, "expects"));
}

TEST(SrmLint, DetectsInlineBodyWithoutExpects) {
  const auto all = run_lint(fixture("violations"));
  EXPECT_TRUE(has_finding(all, "core/bad_inline.hpp", 7, "expects"));
}

TEST(SrmLint, ExpectsRuleScopedToCoreAndStats) {
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "expects")) {
    const bool in_scope = f.file.rfind("core/", 0) == 0 ||
                          f.file.rfind("stats/", 0) == 0;
    EXPECT_TRUE(in_scope) << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, StripPreservesLineStructure) {
  const std::string text =
      "int a; // trailing == 1.0 comment\n"
      "/* block\n   spanning == 2.0 lines */ int b;\n"
      "const char* s = \"== 3.0\";\n";
  const std::string stripped = srm::lint::strip_comments_and_strings(text);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("1.0"), std::string::npos);
  EXPECT_EQ(stripped.find("2.0"), std::string::npos);
  EXPECT_EQ(stripped.find("3.0"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(SrmLint, SuppressionMatchesExactRuleOnly) {
  const std::string text =
      "line one\n"
      "x = y;  // srm-lint: allow(float-compare) — sentinel\n";
  EXPECT_TRUE(srm::lint::is_suppressed(text, 2, "float-compare"));
  EXPECT_FALSE(srm::lint::is_suppressed(text, 2, "iostream"));
  // The line below a suppression comment is also covered.
  const std::string above =
      "// srm-lint: allow(expects) — total domain\n"
      "double f(double x);\n";
  EXPECT_TRUE(srm::lint::is_suppressed(above, 2, "expects"));
  EXPECT_FALSE(srm::lint::is_suppressed(above, 1, "float-compare"));
}

TEST(SrmLint, FormatFindingIsGrepFriendly) {
  const Finding f{"core/x.cpp", 12, "iostream", "message"};
  EXPECT_EQ(srm::lint::format_finding(f), "core/x.cpp:12: [iostream] message");
}

// --- Determinism rule family -------------------------------------------

TEST(SrmLint, DetectsUnorderedContainersInOutputLayers) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "unordered-output");
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_TRUE(
      has_finding(all, "artifact/bad_unordered.cpp", 8, "unordered-output"));
  EXPECT_TRUE(
      has_finding(all, "artifact/bad_unordered.cpp", 11, "unordered-output"));
  EXPECT_TRUE(has_finding(all, "report/bad_unordered_render.cpp", 8,
                          "unordered-output"));
  EXPECT_TRUE(
      has_finding(all, "serve/bad_unordered.cpp", 9, "unordered-output"));
}

TEST(SrmLint, UnorderedOutputRuleScopedToSerializingLayers) {
  // core/ok_unordered.cpp keeps an unordered_map whose iteration order
  // never reaches output; it must stay clean.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "unordered-output")) {
    const bool in_scope = f.file.rfind("artifact/", 0) == 0 ||
                          f.file.rfind("report/", 0) == 0 ||
                          f.file.rfind("cli/", 0) == 0 ||
                          f.file.rfind("serve/", 0) == 0;
    EXPECT_TRUE(in_scope) << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsWallclockSources) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "wallclock");
  ASSERT_EQ(hits.size(), 5u)
      << "random_device, system_clock, time(), steady_clock and "
         "high_resolution_clock all fire";
  EXPECT_TRUE(has_finding(all, "mcmc/bad_wallclock.cpp", 9, "wallclock"));
  EXPECT_TRUE(has_finding(all, "mcmc/bad_wallclock.cpp", 14, "wallclock"));
  EXPECT_TRUE(has_finding(all, "mcmc/bad_wallclock.cpp", 16, "wallclock"));
  EXPECT_TRUE(has_finding(all, "serve/bad_clock.cpp", 9, "wallclock"));
  EXPECT_TRUE(has_finding(all, "serve/bad_clock.cpp", 14, "wallclock"));
}

TEST(SrmLint, WallclockRuleExemptsRandomDirectory) {
  // random/ok_entropy.cpp seeds from std::random_device — the one place
  // nondeterministic entropy is allowed to enter.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "wallclock")) {
    EXPECT_NE(f.file.rfind("random/", 0), 0u) << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, WallclockRuleExemptsServeMetricsOnly) {
  // serve/metrics.cpp is the library's one sanctioned monotonic-clock
  // read (latency-stats path); it reads steady_clock and must stay
  // clean. serve/bad_clock.cpp proves the rest of serve/ is still armed.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "wallclock")) {
    EXPECT_NE(f.file, "serve/metrics.cpp") << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, DetectsPointerKeyedContainers) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "pointer-order");
  ASSERT_EQ(hits.size(), 2u)
      << "pointer keys fire; pointer-valued mapped types stay clean";
  EXPECT_TRUE(
      has_finding(all, "core/bad_pointer_key.cpp", 11, "pointer-order"));
  EXPECT_TRUE(
      has_finding(all, "core/bad_pointer_key.cpp", 12, "pointer-order"));
}

TEST(SrmLint, DetectsLocaleSensitiveFormatting) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "locale-format");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_TRUE(has_finding(all, "data/bad_locale.cpp", 8, "locale-format"));
  EXPECT_TRUE(has_finding(all, "data/bad_locale.cpp", 9, "locale-format"));
}

TEST(SrmLint, LocaleFormatRuleExemptsSupportDirectory) {
  // support/ok_locale.cpp is where the to_chars-backed formatters live;
  // the exemption keeps the rule enforceable everywhere else.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "locale-format")) {
    EXPECT_NE(f.file.rfind("support/", 0), 0u)
        << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, RuleRegistryCoversEveryEmittedRule) {
  // Every finding the analyzer can emit must name a registered rule, so
  // the self-check provably covers the whole rule surface.
  std::vector<std::string> names;
  for (const auto& rule : srm::lint::registered_rules()) {
    names.emplace_back(rule.name);
  }
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : all) {
    EXPECT_NE(std::find(names.begin(), names.end(), f.rule), names.end())
        << "unregistered rule: " << f.rule;
  }
  EXPECT_EQ(names.size(), 17u);
}

TEST(SrmLint, DetectsRawIntrinsics) {
  const auto all = run_lint(fixture("violations"));
  const auto hits = findings_for_rule(all, "raw-intrinsics");
  ASSERT_EQ(hits.size(), 6u)
      << "ISA headers, the raw builtin, and the masked-select spellings all "
         "fire outside support/simd/";
  EXPECT_TRUE(has_finding(all, "core/bad_intrinsics.cpp", 2, "raw-intrinsics"));
  EXPECT_TRUE(has_finding(all, "core/bad_intrinsics.cpp", 3, "raw-intrinsics"));
  EXPECT_TRUE(has_finding(all, "core/bad_intrinsics.cpp", 9, "raw-intrinsics"));
  // Masked-select/movemask spellings fire with no ISA header in the TU.
  EXPECT_TRUE(
      has_finding(all, "core/bad_masked_select.cpp", 8, "raw-intrinsics"));
  EXPECT_TRUE(
      has_finding(all, "core/bad_masked_select.cpp", 10, "raw-intrinsics"));
  EXPECT_TRUE(
      has_finding(all, "core/bad_masked_select.cpp", 11, "raw-intrinsics"));
}

TEST(SrmLint, MaskHelperWrappersDoNotTripRawIntrinsics) {
  // The sanctioned wrapper names (simd::vselect, vlt, vmin) used outside
  // support/simd/ are the whole point of the lane layer — the rule bans the
  // ISA spellings, never the wrappers.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "raw-intrinsics")) {
    EXPECT_NE(f.file, "core/ok_masked_select.cpp")
        << srm::lint::format_finding(f);
  }
}

TEST(SrmLint, RawIntrinsicsRuleExemptsSimdDirectory) {
  // support/simd/ok_intrinsics.cpp is the lane layer's sanctioned home for
  // ISA headers and builtins; the exemption keeps every other TU portable.
  const auto all = run_lint(fixture("violations"));
  for (const auto& f : findings_for_rule(all, "raw-intrinsics")) {
    EXPECT_NE(f.file.rfind("support/simd/", 0), 0u)
        << srm::lint::format_finding(f);
  }
}

}  // namespace
