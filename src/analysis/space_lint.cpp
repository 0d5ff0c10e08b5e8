#include "analysis/space_lint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "util/string_util.h"

namespace autodml::analysis {

std::string_view to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

std::string Diagnostic::to_string() const {
  std::string out = code;
  out += ' ';
  out += analysis::to_string(severity);
  out += " [";
  out += param.empty() ? std::string("<space>") : param;
  out += "] ";
  out += message;
  if (!fix_hint.empty()) {
    out += "; hint: ";
    out += fix_hint;
  }
  return out;
}

bool LintReport::has_errors() const { return error_count() > 0; }

std::size_t LintReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
        return d.severity == Severity::kError;
      }));
}

std::size_t LintReport::warning_count() const {
  return diagnostics.size() - error_count();
}

bool LintReport::has(std::string_view code) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const auto& d) { return d.code == code; });
}

std::vector<Diagnostic> LintReport::for_param(std::string_view name) const {
  std::vector<Diagnostic> out;
  for (const auto& d : diagnostics) {
    if (d.param == name) out.push_back(d);
  }
  return out;
}

std::string LintReport::to_string() const {
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

// ---- ParamDraft ------------------------------------------------------------

ParamDraft ParamDraft::from_spec(const conf::ParamSpec& spec) {
  ParamDraft d;
  d.name = spec.name();
  d.kind = spec.kind();
  d.int_lo = spec.int_lo();
  d.int_hi = spec.int_hi();
  d.cont_lo = spec.cont_lo();
  d.cont_hi = spec.cont_hi();
  d.log_scale = spec.log_scale();
  d.int_choices = spec.int_choices();
  d.categories = spec.categories();
  d.parent = spec.parent();
  d.parent_values = spec.parent_values();
  return d;
}

ParamDraft ParamDraft::integer(std::string name, std::int64_t lo,
                               std::int64_t hi, bool log_scale) {
  ParamDraft d;
  d.name = std::move(name);
  d.kind = conf::ParamKind::kInt;
  d.int_lo = lo;
  d.int_hi = hi;
  d.log_scale = log_scale;
  return d;
}

ParamDraft ParamDraft::int_choice(std::string name,
                                  std::vector<std::int64_t> choices) {
  ParamDraft d;
  d.name = std::move(name);
  d.kind = conf::ParamKind::kIntChoice;
  d.int_choices = std::move(choices);
  return d;
}

ParamDraft ParamDraft::continuous(std::string name, double lo, double hi,
                                  bool log_scale) {
  ParamDraft d;
  d.name = std::move(name);
  d.kind = conf::ParamKind::kContinuous;
  d.cont_lo = lo;
  d.cont_hi = hi;
  d.log_scale = log_scale;
  return d;
}

ParamDraft ParamDraft::categorical(std::string name,
                                   std::vector<std::string> categories) {
  ParamDraft d;
  d.name = std::move(name);
  d.kind = conf::ParamKind::kCategorical;
  d.categories = std::move(categories);
  return d;
}

ParamDraft ParamDraft::boolean(std::string name) {
  ParamDraft d;
  d.name = std::move(name);
  d.kind = conf::ParamKind::kBool;
  return d;
}

ParamDraft& ParamDraft::only_when(std::string parent_name,
                                  std::vector<std::string> values) {
  parent = std::move(parent_name);
  parent_values = std::move(values);
  return *this;
}

// ---- Linter ----------------------------------------------------------------

namespace {

class LintPass {
 public:
  LintPass(std::span<const ParamDraft> drafts, const SpaceLinter::Options& opts)
      : drafts_(drafts), opts_(opts) {
    for (std::size_t i = 0; i < drafts_.size(); ++i) {
      index_.emplace(drafts_[i].name, i);  // keeps the first occurrence
    }
  }

  LintReport run() {
    check_names();
    check_duplicate_names();
    for (std::size_t i = 0; i < drafts_.size(); ++i) check_domain(i);
    for (std::size_t i = 0; i < drafts_.size(); ++i) check_condition(i);
    check_cycles();
    check_reachability();
    for (std::size_t i = 0; i < drafts_.size(); ++i) check_default(i);
    check_encoded_dim();
    return std::move(report_);
  }

 private:
  void add(std::string_view code, Severity severity, std::string param,
           std::string message, std::string fix_hint = "") {
    report_.diagnostics.push_back(Diagnostic{std::string(code), severity,
                                             std::move(param),
                                             std::move(message),
                                             std::move(fix_hint)});
  }

  /// The domain of values a parent parameter can take, as strings (the
  /// representation only_when() matches against). Empty for non-enumerable
  /// parents (which are already flagged by L005).
  static std::vector<std::string> parent_domain(const ParamDraft& p) {
    if (p.kind == conf::ParamKind::kBool) return {"false", "true"};
    if (p.kind == conf::ParamKind::kCategorical) {
      std::vector<std::string> dom = p.categories;
      std::sort(dom.begin(), dom.end());
      dom.erase(std::unique(dom.begin(), dom.end()), dom.end());
      return dom;
    }
    return {};
  }

  static bool valid_name_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  }

  /// The form under which two names are "the same knob to a human":
  /// case-folded, with '-' and '_' identified.
  static std::string normalize_name(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
      if (c == '-') c = '_';
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      out += c;
    }
    return out;
  }

  void check_names() {
    // L016: names reach journals, CSV headers, and CLI flags verbatim, so
    // anything outside a conservative identifier alphabet breaks a
    // downstream parser eventually.
    for (const auto& d : drafts_) {
      const bool bad =
          d.name.empty() ||
          !std::all_of(d.name.begin(), d.name.end(), valid_name_char);
      if (bad) {
        add(kInvalidParamName, Severity::kError, d.name,
            d.name.empty()
                ? "parameter name is empty"
                : "parameter name contains characters outside [A-Za-z0-9_.-]",
            "use a short identifier-style name");
      }
    }
    // L106: distinct raw names that collapse to the same normalized form
    // ("Shards" vs "shards", "num-workers" vs "num_workers") are almost
    // always a typo for one knob; exact duplicates are L001's job.
    std::map<std::string, std::string> first_raw;  // normalized -> first raw
    std::set<std::string> raw_seen;
    for (const auto& d : drafts_) {
      if (!raw_seen.insert(d.name).second) continue;  // exact dup: L001
      const std::string norm = normalize_name(d.name);
      const auto [it, inserted] = first_raw.emplace(norm, d.name);
      if (!inserted) {
        add(kNormalizedNameCollision, Severity::kWarning, d.name,
            "name collides with '" + it->second +
                "' up to case and -/_ (journals and CLI flags will look "
                "like one knob)",
            "pick visibly distinct names or unify the spelling");
      }
    }
  }

  void check_duplicate_names() {
    std::set<std::string> seen;
    for (const auto& d : drafts_) {
      if (!seen.insert(d.name).second) {
        add(kDuplicateParam, Severity::kError, d.name,
            "parameter name declared more than once",
            "rename one of the declarations");
      }
    }
  }

  void check_domain(std::size_t i) {
    const ParamDraft& d = drafts_[i];
    switch (d.kind) {
      case conf::ParamKind::kInt: {
        if (d.int_lo > d.int_hi) {
          add(kInvertedBounds, Severity::kError, d.name,
              "lo (" + std::to_string(d.int_lo) + ") > hi (" +
                  std::to_string(d.int_hi) + ")",
              "swap the bounds");
          return;  // derived checks below would just echo the inversion
        }
        if (d.log_scale && d.int_lo < 1) {
          add(kLogScaleNonPositive, Severity::kError, d.name,
              "log scale over [" + std::to_string(d.int_lo) + ", " +
                  std::to_string(d.int_hi) + "] includes values < 1",
              "raise lo to >= 1 or drop log_scale");
        }
        if (d.int_lo == d.int_hi) {
          add(kSingletonDomain, Severity::kWarning, d.name,
              "range contains a single value (" + std::to_string(d.int_lo) +
                  ")",
              "fix the knob as a constant instead of tuning it");
        }
        if (!d.log_scale && d.int_lo >= 1 &&
            wide_decades(static_cast<double>(d.int_lo),
                         static_cast<double>(d.int_hi))) {
          add(kLinearWideRange, Severity::kWarning, d.name,
              "linear scale spans " + decades_str(d.int_lo, d.int_hi) +
                  " decades",
              "log_scale=true usually models such ranges better");
        }
        break;
      }
      case conf::ParamKind::kIntChoice: {
        if (d.int_choices.empty()) {
          add(kEmptyDomain, Severity::kError, d.name, "menu has no entries",
              "add at least one choice");
          return;
        }
        if (!std::is_sorted(d.int_choices.begin(), d.int_choices.end())) {
          add(kUnsortedMenu, Severity::kError, d.name,
              "menu is not ascending (encoding assumes sorted order)",
              "sort the menu ascending");
        }
        if (std::set<std::int64_t>(d.int_choices.begin(), d.int_choices.end())
                .size() != d.int_choices.size()) {
          add(kDuplicateMenuEntry, Severity::kError, d.name,
              "menu contains duplicate entries",
              "remove the duplicates");
        }
        if (d.int_choices.size() == 1) {
          add(kSingletonDomain, Severity::kWarning, d.name,
              "menu contains a single entry",
              "fix the knob as a constant instead of tuning it");
        }
        break;
      }
      case conf::ParamKind::kContinuous: {
        if (!std::isfinite(d.cont_lo) || !std::isfinite(d.cont_hi)) {
          add(kNonFiniteBound, Severity::kError, d.name,
              "bounds [" + util::fmt(d.cont_lo) + ", " + util::fmt(d.cont_hi) +
                  "] are not finite (encoding would produce NaN)",
              "use finite bounds");
          return;
        }
        if (d.cont_lo >= d.cont_hi) {
          add(kInvertedBounds, Severity::kError, d.name,
              "lo (" + util::fmt(d.cont_lo) + ") >= hi (" +
                  util::fmt(d.cont_hi) + ")",
              "swap or widen the bounds");
          return;
        }
        if (d.log_scale && d.cont_lo <= 0.0) {
          add(kLogScaleNonPositive, Severity::kError, d.name,
              "log scale over [" + util::fmt(d.cont_lo) + ", " +
                  util::fmt(d.cont_hi) + "] crosses or touches zero",
              "raise lo above 0 or drop log_scale");
        }
        if (!d.log_scale && d.cont_lo > 0.0 &&
            wide_decades(d.cont_lo, d.cont_hi)) {
          add(kLinearWideRange, Severity::kWarning, d.name,
              "linear scale spans " + decades_str(d.cont_lo, d.cont_hi) +
                  " decades",
              "log_scale=true usually models such ranges better");
        }
        break;
      }
      case conf::ParamKind::kCategorical: {
        if (d.categories.empty()) {
          add(kEmptyDomain, Severity::kError, d.name, "menu has no entries",
              "add at least two categories");
          return;
        }
        if (d.categories.size() == 1) {
          add(kEmptyDomain, Severity::kError, d.name,
              "menu has a single category (ConfigSpace requires two)",
              "add a second category or fix the knob as a constant");
        }
        std::set<std::string> uniq(d.categories.begin(), d.categories.end());
        if (uniq.size() != d.categories.size()) {
          add(kDuplicateMenuEntry, Severity::kError, d.name,
              "menu contains duplicate categories (one-hot encoding becomes "
              "ambiguous)",
              "remove the duplicates");
        }
        if (d.categories.size() > opts_.onehot_warn_width) {
          add(kWideOneHot, Severity::kWarning, d.name,
              "one-hot block of " + std::to_string(d.categories.size()) +
                  " coordinates inflates the surrogate dimension",
              "group rare categories or split the knob");
        }
        break;
      }
      case conf::ParamKind::kBool:
        break;
    }
  }

  void check_condition(std::size_t i) {
    const ParamDraft& d = drafts_[i];
    if (d.parent.empty()) return;
    const auto it = index_.find(d.parent);
    if (it == index_.end()) {
      add(kUnknownParent, Severity::kError, d.name,
          "activation condition references unknown parameter '" + d.parent +
              "'",
          "declare the parent or fix the name");
      return;
    }
    if (it->second > i) {
      add(kParentAfterChild, Severity::kError, d.name,
          "parent '" + d.parent +
              "' is declared after its child (ConfigSpace::add requires "
              "parents first)",
          "move the parent declaration before this parameter");
    }
    const ParamDraft& parent = drafts_[it->second];
    if (parent.kind != conf::ParamKind::kCategorical &&
        parent.kind != conf::ParamKind::kBool) {
      add(kBadParentKind, Severity::kError, d.name,
          "parent '" + d.parent + "' is not categorical or boolean",
          "condition on a categorical/boolean knob");
      return;
    }
    const std::vector<std::string> domain = parent_domain(parent);
    std::set<std::string> effective;
    std::set<std::string> seen;
    for (const auto& v : d.parent_values) {
      if (!seen.insert(v).second) {
        add(kDuplicateEnablingValue, Severity::kWarning, d.name,
            "enabling value '" + v + "' listed more than once",
            "remove the duplicate");
        continue;
      }
      if (std::find(domain.begin(), domain.end(), v) == domain.end()) {
        add(kUnknownParentValue, Severity::kError, d.name,
            "enabling value '" + v + "' is not in the domain of '" + d.parent +
                "'",
            "use one of {" + util::join(domain, ",") + "}");
      } else {
        effective.insert(v);
      }
    }
    if (effective.empty()) {
      add(kUnreachableParam, Severity::kError, d.name,
          "activation condition can never fire (no valid enabling values)",
          "list at least one value the parent can actually take");
    } else if (effective.size() == domain.size()) {
      add(kVacuousCondition, Severity::kWarning, d.name,
          "enabling set covers every value of '" + d.parent +
              "' (condition is always true)",
          "drop the condition or shrink the enabling set");
    }
  }

  void check_cycles() {
    // Follow each node's parent chain; a chain longer than the space has
    // nodes must have revisited something.
    for (std::size_t i = 0; i < drafts_.size(); ++i) {
      std::size_t cur = i;
      bool cycle = false;
      for (std::size_t hops = 0; hops <= drafts_.size(); ++hops) {
        const std::string& parent = drafts_[cur].parent;
        if (parent.empty()) break;
        const auto it = index_.find(parent);
        if (it == index_.end()) break;
        cur = it->second;
        if (cur == i) {
          cycle = true;
          break;
        }
      }
      if (cycle) {
        in_cycle_.insert(i);
        add(kConditionCycle, Severity::kError, drafts_[i].name,
            "activation condition participates in a cycle",
            "break the cycle; conditions must form a forest");
      }
    }
  }

  /// True when the parameter's activation condition can fire at least once.
  /// Unknown parents and cycle members are treated as reachable here: their
  /// dedicated diagnostics already fired and cascading L008s would bury them.
  bool reachable(std::size_t i, std::size_t depth = 0) {
    const ParamDraft& d = drafts_[i];
    if (d.parent.empty() || in_cycle_.count(i) || depth > drafts_.size()) {
      return true;
    }
    const auto it = index_.find(d.parent);
    if (it == index_.end()) return true;
    const ParamDraft& parent = drafts_[it->second];
    const std::vector<std::string> domain = parent_domain(parent);
    const bool any_valid = std::any_of(
        d.parent_values.begin(), d.parent_values.end(), [&](const auto& v) {
          return std::find(domain.begin(), domain.end(), v) != domain.end();
        });
    if (!any_valid) return false;  // L008 fired in check_condition already
    return reachable(it->second, depth + 1);
  }

  void check_reachability() {
    for (std::size_t i = 0; i < drafts_.size(); ++i) {
      const ParamDraft& d = drafts_[i];
      if (d.parent.empty() || in_cycle_.count(i)) continue;
      // Only report ancestor-induced unreachability here; the direct
      // empty-enabling-set case is reported by check_condition.
      const auto it = index_.find(d.parent);
      if (it == index_.end()) continue;
      if (reachable(i)) continue;
      const bool direct = !std::any_of(
          d.parent_values.begin(), d.parent_values.end(), [&](const auto& v) {
            const auto dom = parent_domain(drafts_[it->second]);
            return std::find(dom.begin(), dom.end(), v) != dom.end();
          });
      if (!direct) {
        add(kUnreachableParam, Severity::kError, d.name,
            "unreachable: ancestor '" + d.parent + "' can never be active",
            "fix the ancestor's activation condition");
      }
    }
  }

  void check_default(std::size_t i) {
    const ParamDraft& d = drafts_[i];
    if (!d.default_value) return;
    const conf::ParamValue& v = *d.default_value;
    bool ok = false;
    switch (d.kind) {
      case conf::ParamKind::kInt: {
        const auto* x = std::get_if<std::int64_t>(&v);
        ok = x != nullptr && *x >= d.int_lo && *x <= d.int_hi;
        break;
      }
      case conf::ParamKind::kIntChoice: {
        const auto* x = std::get_if<std::int64_t>(&v);
        ok = x != nullptr &&
             std::find(d.int_choices.begin(), d.int_choices.end(), *x) !=
                 d.int_choices.end();
        break;
      }
      case conf::ParamKind::kContinuous: {
        const auto* x = std::get_if<double>(&v);
        ok = x != nullptr && std::isfinite(*x) && *x >= d.cont_lo &&
             *x <= d.cont_hi;
        break;
      }
      case conf::ParamKind::kCategorical: {
        const auto* x = std::get_if<std::string>(&v);
        ok = x != nullptr &&
             std::find(d.categories.begin(), d.categories.end(), *x) !=
                 d.categories.end();
        break;
      }
      case conf::ParamKind::kBool:
        ok = std::holds_alternative<bool>(v);
        break;
    }
    if (!ok) {
      add(kDefaultOutOfRange, Severity::kError, d.name,
          "default value " + conf::to_string(v) +
              " is outside the parameter's own domain (canonicalization "
              "of inactive conditionals would produce an invalid config)",
          "pick a default inside the declared domain");
    }
  }

  void check_encoded_dim() {
    if (!opts_.expected_encoded_dim) return;
    std::size_t dim = 0;
    for (const auto& d : drafts_) {
      dim += d.kind == conf::ParamKind::kCategorical ? d.categories.size() : 1;
    }
    if (dim != *opts_.expected_encoded_dim) {
      add(kEncodedDimMismatch, Severity::kError, "",
          "encoded dimension " + std::to_string(dim) +
              " does not match the expected surrogate dimension " +
              std::to_string(*opts_.expected_encoded_dim),
          "re-fit the surrogate or restore the original space shape");
    }
  }

  static bool wide_decades_impl(double lo, double hi, double decades) {
    return lo > 0.0 && hi > lo && std::log10(hi / lo) >= decades;
  }
  bool wide_decades(double lo, double hi) const {
    return wide_decades_impl(lo, hi, opts_.wide_range_decades);
  }
  static std::string decades_str(double lo, double hi) {
    return util::fmt(std::log10(hi / lo), 1);
  }

  std::span<const ParamDraft> drafts_;
  const SpaceLinter::Options& opts_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::set<std::size_t> in_cycle_;
  LintReport report_;
};

}  // namespace

LintReport SpaceLinter::lint(std::span<const ParamDraft> drafts) const {
  return LintPass(drafts, options_).run();
}

LintReport SpaceLinter::lint(const conf::ConfigSpace& space) const {
  std::vector<ParamDraft> drafts;
  drafts.reserve(space.num_params());
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    drafts.push_back(ParamDraft::from_spec(space.param(i)));
  }
  return LintPass(drafts, options_).run();
}

void throw_if_errors(const LintReport& report, std::string_view context) {
  if (!report.has_errors()) return;
  throw std::invalid_argument(std::string(context) +
                              ": configuration space failed lint:\n" +
                              report.to_string());
}

std::vector<ParamDraft> malformed_demo_space() {
  std::vector<ParamDraft> drafts;
  drafts.push_back(ParamDraft::integer("workers", 64, 4));  // L002
  drafts.push_back(
      ParamDraft::continuous("learning_rate", -1e-3, 1.0, true));  // L003
  drafts.push_back(ParamDraft::continuous("momentum", 0.0,
                                          std::numeric_limits<double>::infinity()));  // L014
  drafts.push_back(ParamDraft::int_choice("batch_size", {256, 64, 64}));  // L010 + L011
  drafts.push_back(ParamDraft::categorical("sync_mode", {"bsp", "ssp", "bsp"}));  // L011
  drafts.push_back(ParamDraft::integer("staleness", 1, 16)
                       .only_when("sync_mode", {"asp"}));  // L006 + L008
  drafts.push_back(ParamDraft::integer("prefetch", 1, 8)
                       .only_when("compression", {"zlib"}));  // L004
  drafts.push_back(ParamDraft::boolean("sync_mode"));  // L001
  ParamDraft shards = ParamDraft::integer("shards", 1, 1048576);  // L104
  shards.default_value = std::int64_t{0};  // L012
  drafts.push_back(std::move(shards));
  drafts.push_back(ParamDraft::continuous("learn rate", 0.1, 1.0));  // L016
  drafts.push_back(ParamDraft::integer("Shards", 1, 8));  // L106
  return drafts;
}

}  // namespace autodml::analysis
