// Structured diagnostics for static analysis of configuration spaces.
//
// Every finding carries a stable code (grep-able, test-able), a severity,
// the offending parameter, a human message, and a fix hint. Codes are
// partitioned by severity: L0xx are errors (the space is broken and a
// tuning run would waste its budget or corrupt the surrogate), L1xx are
// warnings (legal but suspicious — usually a smell that the space author
// meant something else).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace autodml::analysis {

enum class Severity { kWarning, kError };

std::string_view to_string(Severity s);

// ---- Error codes (tuning would be wasted or wrong) -------------------------
inline constexpr std::string_view kDuplicateParam = "L001";
inline constexpr std::string_view kInvertedBounds = "L002";
inline constexpr std::string_view kLogScaleNonPositive = "L003";
inline constexpr std::string_view kUnknownParent = "L004";
inline constexpr std::string_view kBadParentKind = "L005";
inline constexpr std::string_view kUnknownParentValue = "L006";
inline constexpr std::string_view kConditionCycle = "L007";
inline constexpr std::string_view kUnreachableParam = "L008";
inline constexpr std::string_view kEmptyDomain = "L009";
inline constexpr std::string_view kUnsortedMenu = "L010";
inline constexpr std::string_view kDuplicateMenuEntry = "L011";
inline constexpr std::string_view kDefaultOutOfRange = "L012";
inline constexpr std::string_view kEncodedDimMismatch = "L013";
inline constexpr std::string_view kNonFiniteBound = "L014";
inline constexpr std::string_view kParentAfterChild = "L015";
inline constexpr std::string_view kInvalidParamName = "L016";

// ---- Warning codes (legal but suspicious) ----------------------------------
inline constexpr std::string_view kVacuousCondition = "L101";
inline constexpr std::string_view kSingletonDomain = "L102";
inline constexpr std::string_view kDuplicateEnablingValue = "L103";
inline constexpr std::string_view kLinearWideRange = "L104";
inline constexpr std::string_view kWideOneHot = "L105";
inline constexpr std::string_view kNormalizedNameCollision = "L106";

struct Diagnostic {
  std::string code;      // one of the L0xx/L1xx constants above
  Severity severity = Severity::kError;
  std::string param;     // offending parameter name ("" = whole space)
  std::string message;
  std::string fix_hint;  // actionable suggestion; may be empty

  /// "L002 error [batch_size] lo (128) > hi (16); hint: swap the bounds".
  std::string to_string() const;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;

  bool has_errors() const;
  std::size_t error_count() const;
  std::size_t warning_count() const;

  /// True when `code` appears at least once.
  // Test surface: tests/space_lint_test.cpp
  bool has(std::string_view code) const;

  /// Diagnostics for one parameter.
  // Test surface: tests/space_lint_test.cpp
  std::vector<Diagnostic> for_param(std::string_view name) const;

  /// One diagnostic per line; empty string for a clean report.
  std::string to_string() const;
};

}  // namespace autodml::analysis
