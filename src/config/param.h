// Parameter specifications for distributed-ML configuration spaces.
//
// A parameter is one tunable knob of the training job (worker count, batch
// size, sync mode, ...). Kinds cover the mixed space such jobs expose:
// bounded integers (optionally log-scaled), explicit integer menus,
// continuous ranges (optionally log-scaled), categoricals, and booleans.
// A parameter may be *conditional*: active only when a categorical/boolean
// parent takes one of a set of values (e.g. `staleness` only matters under
// SSP synchronization).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace autodml::conf {

enum class ParamKind { kInt, kIntChoice, kContinuous, kCategorical, kBool };

/// Runtime value of one parameter. Which alternative is valid is dictated
/// by the parameter's kind: kInt/kIntChoice -> int64, kContinuous -> double,
/// kCategorical -> string, kBool -> bool.
using ParamValue = std::variant<std::int64_t, double, std::string, bool>;

std::string to_string(const ParamValue& v);

class ParamSpec {
 public:
  /// Bounded integer in [lo, hi]; when log_scale, encoding is logarithmic
  /// (requires lo >= 1).
  static ParamSpec integer(std::string name, std::int64_t lo, std::int64_t hi,
                           bool log_scale = false);

  /// Integer restricted to an explicit ascending menu (e.g. powers of two).
  static ParamSpec int_choice(std::string name,
                              std::vector<std::int64_t> choices);

  /// Continuous in [lo, hi]; when log_scale, encoding is logarithmic
  /// (requires lo > 0).
  static ParamSpec continuous(std::string name, double lo, double hi,
                              bool log_scale = false);

  static ParamSpec categorical(std::string name,
                               std::vector<std::string> categories);

  static ParamSpec boolean(std::string name);

  /// Restrict activation: this parameter participates only when the parent
  /// parameter (categorical or boolean) currently holds one of
  /// `parent_values`. Boolean parents use "true"/"false" strings.
  ParamSpec& only_when(std::string parent,
                       std::vector<std::string> parent_values);

  const std::string& name() const { return name_; }
  ParamKind kind() const { return kind_; }
  bool is_conditional() const { return !parent_.empty(); }
  const std::string& parent() const { return parent_; }
  const std::vector<std::string>& parent_values() const {
    return parent_values_;
  }

  std::int64_t int_lo() const { return int_lo_; }
  std::int64_t int_hi() const { return int_hi_; }
  bool log_scale() const { return log_scale_; }
  const std::vector<std::int64_t>& int_choices() const { return int_choices_; }
  double cont_lo() const { return cont_lo_; }
  double cont_hi() const { return cont_hi_; }
  const std::vector<std::string>& categories() const { return categories_; }

  /// Number of unit-hypercube coordinates this parameter occupies
  /// (1, except one-hot categoricals which occupy #categories).
  std::size_t encoded_width() const;

  /// Number of distinct values (0 means uncountably many: continuous).
  std::size_t cardinality() const;

  /// Canonical default used for inactive conditional parameters: lo /
  /// first choice / first category / false / cont_lo.
  ParamValue default_value() const;

  /// True if v is a legal value for this parameter.
  bool is_valid(const ParamValue& v) const;

 private:
  explicit ParamSpec(std::string name, ParamKind kind)
      : name_(std::move(name)), kind_(kind) {}

  std::string name_;
  ParamKind kind_;
  std::int64_t int_lo_ = 0;
  std::int64_t int_hi_ = 0;
  bool log_scale_ = false;
  std::vector<std::int64_t> int_choices_;
  double cont_lo_ = 0.0;
  double cont_hi_ = 0.0;
  std::vector<std::string> categories_;
  std::string parent_;
  std::vector<std::string> parent_values_;
};

}  // namespace autodml::conf
