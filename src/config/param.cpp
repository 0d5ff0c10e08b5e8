#include "config/param.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/string_util.h"

namespace autodml::conf {

std::string to_string(const ParamValue& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          return std::to_string(x);
        } else if constexpr (std::is_same_v<T, double>) {
          return util::fmt(x, 6);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return x;
        } else {
          return x ? "true" : "false";
        }
      },
      v);
}

ParamSpec ParamSpec::integer(std::string name, std::int64_t lo,
                             std::int64_t hi, bool log_scale) {
  if (lo > hi) throw std::invalid_argument("integer param: lo > hi");
  if (log_scale && lo < 1)
    throw std::invalid_argument("integer param: log scale requires lo >= 1");
  ParamSpec p(std::move(name), ParamKind::kInt);
  p.int_lo_ = lo;
  p.int_hi_ = hi;
  p.log_scale_ = log_scale;
  return p;
}

ParamSpec ParamSpec::int_choice(std::string name,
                                std::vector<std::int64_t> choices) {
  if (choices.empty()) throw std::invalid_argument("int_choice: empty menu");
  if (!std::is_sorted(choices.begin(), choices.end()))
    throw std::invalid_argument("int_choice: menu must be ascending");
  ParamSpec p(std::move(name), ParamKind::kIntChoice);
  p.int_choices_ = std::move(choices);
  return p;
}

ParamSpec ParamSpec::continuous(std::string name, double lo, double hi,
                                bool log_scale) {
  if (!(lo < hi)) throw std::invalid_argument("continuous param: lo >= hi");
  if (log_scale && lo <= 0.0)
    throw std::invalid_argument("continuous param: log scale requires lo > 0");
  ParamSpec p(std::move(name), ParamKind::kContinuous);
  p.cont_lo_ = lo;
  p.cont_hi_ = hi;
  p.log_scale_ = log_scale;
  return p;
}

ParamSpec ParamSpec::categorical(std::string name,
                                 std::vector<std::string> categories) {
  if (categories.size() < 2)
    throw std::invalid_argument("categorical: need at least 2 categories");
  ParamSpec p(std::move(name), ParamKind::kCategorical);
  p.categories_ = std::move(categories);
  return p;
}

ParamSpec ParamSpec::boolean(std::string name) {
  return ParamSpec(std::move(name), ParamKind::kBool);
}

ParamSpec& ParamSpec::only_when(std::string parent,
                                std::vector<std::string> parent_values) {
  if (parent_values.empty())
    throw std::invalid_argument("only_when: empty enabling set");
  parent_ = std::move(parent);
  parent_values_ = std::move(parent_values);
  return *this;
}

std::size_t ParamSpec::encoded_width() const {
  return kind_ == ParamKind::kCategorical ? categories_.size() : 1;
}

std::size_t ParamSpec::cardinality() const {
  switch (kind_) {
    case ParamKind::kInt:
      return static_cast<std::size_t>(int_hi_ - int_lo_ + 1);
    case ParamKind::kIntChoice:
      return int_choices_.size();
    case ParamKind::kContinuous:
      return 0;
    case ParamKind::kCategorical:
      return categories_.size();
    case ParamKind::kBool:
      return 2;
  }
  return 0;
}

ParamValue ParamSpec::default_value() const {
  switch (kind_) {
    case ParamKind::kInt:
      return int_lo_;
    case ParamKind::kIntChoice:
      return int_choices_.front();
    case ParamKind::kContinuous:
      return cont_lo_;
    case ParamKind::kCategorical:
      return categories_.front();
    case ParamKind::kBool:
      return false;
  }
  return std::int64_t{0};
}

bool ParamSpec::is_valid(const ParamValue& v) const {
  switch (kind_) {
    case ParamKind::kInt: {
      const auto* x = std::get_if<std::int64_t>(&v);
      return x != nullptr && *x >= int_lo_ && *x <= int_hi_;
    }
    case ParamKind::kIntChoice: {
      const auto* x = std::get_if<std::int64_t>(&v);
      return x != nullptr &&
             std::binary_search(int_choices_.begin(), int_choices_.end(), *x);
    }
    case ParamKind::kContinuous: {
      const auto* x = std::get_if<double>(&v);
      return x != nullptr && std::isfinite(*x) && *x >= cont_lo_ &&
             *x <= cont_hi_;
    }
    case ParamKind::kCategorical: {
      const auto* x = std::get_if<std::string>(&v);
      return x != nullptr &&
             std::find(categories_.begin(), categories_.end(), *x) !=
                 categories_.end();
    }
    case ParamKind::kBool:
      return std::holds_alternative<bool>(v);
  }
  return false;
}

}  // namespace autodml::conf
