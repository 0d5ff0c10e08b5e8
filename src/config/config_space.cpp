#include "config/config_space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autodml::conf {

// ---- Config ----------------------------------------------------------------

Config::Config(const ConfigSpace* space, std::vector<ParamValue> values)
    : space_(space), values_(std::move(values)) {
  if (space_ != nullptr) space_alive_ = space_->liveness_token();
}

void Config::require_space_alive() const {
  if (space_ == nullptr) throw std::logic_error("Config: no space bound");
  if (space_alive_.expired()) {
    throw std::logic_error(
        "Config: bound ConfigSpace has been destroyed (the space must "
        "outlive every config created from it)");
  }
}

const ParamValue& Config::ref(std::string_view name) const {
  require_space_alive();
  return values_.at(space_->index_of(name));
}

ParamValue& Config::mut_ref(std::string_view name) {
  require_space_alive();
  return values_.at(space_->index_of(name));
}

std::int64_t Config::get_int(std::string_view name) const {
  return std::get<std::int64_t>(ref(name));
}

double Config::get_double(std::string_view name) const {
  return std::get<double>(ref(name));
}

const std::string& Config::get_cat(std::string_view name) const {
  return std::get<std::string>(ref(name));
}

void Config::set_int(std::string_view name, std::int64_t v) {
  mut_ref(name) = v;
}

void Config::set_double(std::string_view name, double v) { mut_ref(name) = v; }

void Config::set_cat(std::string_view name, std::string v) {
  mut_ref(name) = std::move(v);
}

void Config::set_bool(std::string_view name, bool v) { mut_ref(name) = v; }

std::string Config::to_string() const {
  if (space_ == nullptr) return "<unbound>";
  if (space_alive_.expired()) {
    // Render raw values rather than touching the dead space.
    std::string out = "<stale space>";
    for (const auto& v : values_) {
      out += ' ';
      out += conf::to_string(v);
    }
    return out;
  }
  std::string out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i) out += ' ';
    const bool active = space_->is_active(*this, i);
    if (!active) out += '[';
    out += space_->param(i).name();
    out += '=';
    out += conf::to_string(values_[i]);
    if (!active) out += ']';
  }
  return out;
}

// ---- ConfigSpace ------------------------------------------------------------

void ConfigSpace::add(ParamSpec spec) {
  if (index_.count(spec.name()))
    throw std::invalid_argument("ConfigSpace: duplicate parameter " +
                                spec.name());
  if (spec.is_conditional()) {
    const auto it = index_.find(spec.parent());
    if (it == index_.end())
      throw std::invalid_argument("ConfigSpace: unknown parent " +
                                  spec.parent());
    const ParamSpec& parent = params_[it->second];
    if (parent.kind() != ParamKind::kCategorical &&
        parent.kind() != ParamKind::kBool) {
      throw std::invalid_argument(
          "ConfigSpace: conditional parent must be categorical or boolean");
    }
    for (const auto& pv : spec.parent_values()) {
      if (parent.kind() == ParamKind::kBool) {
        if (pv != "true" && pv != "false")
          throw std::invalid_argument(
              "ConfigSpace: boolean parent value must be true/false");
      } else if (std::find(parent.categories().begin(),
                           parent.categories().end(),
                           pv) == parent.categories().end()) {
        throw std::invalid_argument("ConfigSpace: parent " + spec.parent() +
                                    " has no category " + pv);
      }
    }
  }
  index_.emplace(spec.name(), params_.size());
  params_.push_back(std::move(spec));
}

const ParamSpec& ConfigSpace::param(std::string_view name) const {
  return params_[index_of(name)];
}

std::size_t ConfigSpace::index_of(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::invalid_argument("ConfigSpace: unknown parameter " +
                                std::string(name));
  return it->second;
}

bool ConfigSpace::contains(std::string_view name) const {
  return index_.find(name) != index_.end();
}

std::size_t ConfigSpace::encoded_dimension() const {
  std::size_t d = 0;
  for (const auto& p : params_) d += p.encoded_width();
  return d;
}

Config ConfigSpace::default_config() const {
  std::vector<ParamValue> values;
  values.reserve(params_.size());
  for (const auto& p : params_) values.push_back(p.default_value());
  Config c(this, std::move(values));
  canonicalize(c);
  return c;
}

bool ConfigSpace::is_active(const Config& c, std::size_t param_index) const {
  const ParamSpec& p = params_.at(param_index);
  if (!p.is_conditional()) return true;
  const std::size_t parent_index = index_of(p.parent());
  // A conditional parameter whose parent is itself inactive is inactive.
  if (!is_active(c, parent_index)) return false;
  const ParamValue& pv = c.value_at(parent_index);
  const std::string actual = conf::to_string(pv);
  return std::find(p.parent_values().begin(), p.parent_values().end(),
                   actual) != p.parent_values().end();
}

void ConfigSpace::canonicalize(Config& c) const {
  // Parents precede children (enforced in add()), so one forward pass is
  // enough: by the time we test is_active(i), all ancestors are final.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!is_active(c, i)) c.set_value_at(i, params_[i].default_value());
  }
}

void ConfigSpace::validate(const Config& c) const {
  // Configs from a *different instance* of an identically-shaped space are
  // accepted (warm starts and ground-truth checks routinely carry configs
  // across evaluator instances); value-level checks below catch real
  // mismatches.
  if (c.size() != params_.size())
    throw std::invalid_argument("validate: value count mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].is_valid(c.value_at(i)))
      throw std::invalid_argument("validate: invalid value for parameter " +
                                  params_[i].name());
  }
}

double ConfigSpace::encode_scalar(const ParamSpec& p,
                                  const ParamValue& v) const {
  switch (p.kind()) {
    case ParamKind::kInt: {
      const auto x = std::get<std::int64_t>(v);
      if (p.int_hi() == p.int_lo()) return 0.5;
      if (p.log_scale()) {
        return (std::log(static_cast<double>(x)) -
                std::log(static_cast<double>(p.int_lo()))) /
               (std::log(static_cast<double>(p.int_hi())) -
                std::log(static_cast<double>(p.int_lo())));
      }
      return static_cast<double>(x - p.int_lo()) /
             static_cast<double>(p.int_hi() - p.int_lo());
    }
    case ParamKind::kIntChoice: {
      const auto x = std::get<std::int64_t>(v);
      const auto& menu = p.int_choices();
      const auto it = std::lower_bound(menu.begin(), menu.end(), x);
      const auto idx = static_cast<std::size_t>(it - menu.begin());
      if (menu.size() == 1) return 0.5;
      return static_cast<double>(idx) / static_cast<double>(menu.size() - 1);
    }
    case ParamKind::kContinuous: {
      const double x = std::get<double>(v);
      if (p.log_scale()) {
        return (std::log(x) - std::log(p.cont_lo())) /
               (std::log(p.cont_hi()) - std::log(p.cont_lo()));
      }
      return (x - p.cont_lo()) / (p.cont_hi() - p.cont_lo());
    }
    case ParamKind::kBool:
      return std::get<bool>(v) ? 1.0 : 0.0;
    case ParamKind::kCategorical:
      throw std::logic_error("encode_scalar: categorical handled by caller");
  }
  return 0.0;
}

ParamValue ConfigSpace::decode_scalar(const ParamSpec& p, double u) const {
  u = std::clamp(u, 0.0, 1.0);
  switch (p.kind()) {
    case ParamKind::kInt: {
      if (p.int_hi() == p.int_lo()) return p.int_lo();
      double raw;
      if (p.log_scale()) {
        const double lo = std::log(static_cast<double>(p.int_lo()));
        const double hi = std::log(static_cast<double>(p.int_hi()));
        raw = std::exp(lo + u * (hi - lo));
      } else {
        raw = static_cast<double>(p.int_lo()) +
              u * static_cast<double>(p.int_hi() - p.int_lo());
      }
      const auto x = static_cast<std::int64_t>(std::llround(raw));
      return std::clamp(x, p.int_lo(), p.int_hi());
    }
    case ParamKind::kIntChoice: {
      const auto& menu = p.int_choices();
      if (menu.size() == 1) return menu.front();
      const auto idx = static_cast<std::size_t>(
          std::llround(u * static_cast<double>(menu.size() - 1)));
      return menu[std::min(idx, menu.size() - 1)];
    }
    case ParamKind::kContinuous: {
      if (p.log_scale()) {
        const double lo = std::log(p.cont_lo());
        const double hi = std::log(p.cont_hi());
        return std::clamp(std::exp(lo + u * (hi - lo)), p.cont_lo(),
                          p.cont_hi());
      }
      return std::clamp(p.cont_lo() + u * (p.cont_hi() - p.cont_lo()),
                        p.cont_lo(), p.cont_hi());
    }
    case ParamKind::kBool:
      return u >= 0.5;
    case ParamKind::kCategorical:
      throw std::logic_error("decode_scalar: categorical handled by caller");
  }
  return std::int64_t{0};
}

math::Vec ConfigSpace::encode(const Config& c) const {
  validate(c);
  Config canon = c;
  canonicalize(canon);
  math::Vec x;
  x.reserve(encoded_dimension());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const ParamSpec& p = params_[i];
    if (p.kind() == ParamKind::kCategorical) {
      const auto& cat = std::get<std::string>(canon.value_at(i));
      for (const auto& candidate : p.categories()) {
        x.push_back(candidate == cat ? 1.0 : 0.0);
      }
    } else {
      x.push_back(encode_scalar(p, canon.value_at(i)));
    }
  }
  return x;
}

Config ConfigSpace::decode(std::span<const double> x) const {
  if (x.size() != encoded_dimension())
    throw std::invalid_argument("decode: dimension mismatch");
  std::vector<ParamValue> values;
  values.reserve(params_.size());
  std::size_t pos = 0;
  for (const auto& p : params_) {
    if (p.kind() == ParamKind::kCategorical) {
      const std::size_t n = p.categories().size();
      std::size_t best = 0;
      for (std::size_t j = 1; j < n; ++j) {
        if (x[pos + j] > x[pos + best]) best = j;
      }
      values.emplace_back(p.categories()[best]);
      pos += n;
    } else {
      values.push_back(decode_scalar(p, x[pos]));
      ++pos;
    }
  }
  Config c(this, std::move(values));
  canonicalize(c);
  return c;
}

Config ConfigSpace::sample_uniform(util::Rng& rng) const {
  std::vector<ParamValue> values;
  values.reserve(params_.size());
  for (const auto& p : params_) {
    switch (p.kind()) {
      case ParamKind::kInt:
        if (p.log_scale()) {
          values.push_back(std::get<std::int64_t>(
              decode_scalar(p, rng.uniform())));
        } else {
          values.push_back(rng.uniform_int(p.int_lo(), p.int_hi()));
        }
        break;
      case ParamKind::kIntChoice:
        values.push_back(p.int_choices()[rng.index(p.int_choices().size())]);
        break;
      case ParamKind::kContinuous:
        values.push_back(std::get<double>(decode_scalar(p, rng.uniform())));
        break;
      case ParamKind::kCategorical:
        values.emplace_back(p.categories()[rng.index(p.categories().size())]);
        break;
      case ParamKind::kBool:
        values.push_back(rng.bernoulli(0.5));
        break;
    }
  }
  Config c(this, std::move(values));
  canonicalize(c);
  return c;
}

Config ConfigSpace::neighbor(const Config& c, util::Rng& rng,
                             double sigma) const {
  validate(c);
  // Rebind to *this*: `c` may be bound to a different (possibly already
  // destroyed) space instance — e.g. a warm-start trial from an earlier
  // session — and the neighbor must belong to the live space.
  std::vector<ParamValue> values;
  values.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) values.push_back(c.value_at(i));
  Config out(this, std::move(values));
  canonicalize(out);

  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (is_active(out, i) && params_[i].cardinality() != 1) active.push_back(i);
  }
  if (active.empty()) return out;
  const std::size_t i = active[rng.index(active.size())];
  const ParamSpec& p = params_[i];

  switch (p.kind()) {
    case ParamKind::kInt: {
      const auto cur = std::get<std::int64_t>(out.value_at(i));
      // Step size ~ sigma of the range, at least 1, in either direction.
      const auto range = p.int_hi() - p.int_lo();
      const auto max_step = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(sigma * static_cast<double>(range))));
      std::int64_t next = cur;
      while (next == cur) {
        next = std::clamp(cur + rng.uniform_int(-max_step, max_step),
                          p.int_lo(), p.int_hi());
        if (p.int_lo() == p.int_hi()) break;
      }
      out.set_value_at(i, next);
      break;
    }
    case ParamKind::kIntChoice: {
      const auto& menu = p.int_choices();
      const auto cur = std::get<std::int64_t>(out.value_at(i));
      const auto cur_idx = static_cast<std::int64_t>(
          std::lower_bound(menu.begin(), menu.end(), cur) - menu.begin());
      const std::int64_t step = rng.bernoulli(0.5) ? 1 : -1;
      const auto next_idx = std::clamp<std::int64_t>(
          cur_idx + step, 0, static_cast<std::int64_t>(menu.size()) - 1);
      out.set_value_at(i, menu[static_cast<std::size_t>(
                               next_idx == cur_idx ? cur_idx - step : next_idx)]);
      break;
    }
    case ParamKind::kContinuous: {
      const double u = encode_scalar(p, out.value_at(i));
      const double next = std::clamp(u + rng.normal(0.0, sigma), 0.0, 1.0);
      out.set_value_at(i, decode_scalar(p, next));
      break;
    }
    case ParamKind::kCategorical: {
      const auto& cats = p.categories();
      const auto& cur = std::get<std::string>(out.value_at(i));
      std::string next = cur;
      while (next == cur) next = cats[rng.index(cats.size())];
      out.set_value_at(i, next);
      break;
    }
    case ParamKind::kBool:
      out.set_value_at(i, !std::get<bool>(out.value_at(i)));
      break;
  }
  canonicalize(out);
  return out;
}

namespace {

std::vector<ParamValue> axis_values(const ParamSpec& p,
                                    std::size_t points_per_axis) {
  std::vector<ParamValue> out;
  switch (p.kind()) {
    case ParamKind::kInt: {
      const auto count = static_cast<std::size_t>(p.int_hi() - p.int_lo() + 1);
      if (count <= points_per_axis) {
        for (std::int64_t v = p.int_lo(); v <= p.int_hi(); ++v)
          out.emplace_back(v);
      } else {
        for (std::size_t k = 0; k < points_per_axis; ++k) {
          const double frac =
              points_per_axis == 1
                  ? 0.5
                  : static_cast<double>(k) /
                        static_cast<double>(points_per_axis - 1);
          const auto v = static_cast<std::int64_t>(std::llround(
              static_cast<double>(p.int_lo()) +
              frac * static_cast<double>(p.int_hi() - p.int_lo())));
          if (out.empty() || std::get<std::int64_t>(out.back()) != v)
            out.emplace_back(v);
        }
      }
      break;
    }
    case ParamKind::kIntChoice: {
      const auto& menu = p.int_choices();
      if (menu.size() <= points_per_axis) {
        for (auto v : menu) out.emplace_back(v);
      } else {
        for (std::size_t k = 0; k < points_per_axis; ++k) {
          const std::size_t idx =
              points_per_axis == 1
                  ? menu.size() / 2
                  : (k * (menu.size() - 1)) / (points_per_axis - 1);
          if (out.empty() || std::get<std::int64_t>(out.back()) != menu[idx])
            out.emplace_back(menu[idx]);
        }
      }
      break;
    }
    case ParamKind::kContinuous: {
      const std::size_t n = std::max<std::size_t>(2, points_per_axis);
      for (std::size_t k = 0; k < n; ++k) {
        const double frac =
            static_cast<double>(k) / static_cast<double>(n - 1);
        double v;
        if (p.log_scale()) {
          v = std::exp(std::log(p.cont_lo()) +
                       frac * (std::log(p.cont_hi()) - std::log(p.cont_lo())));
        } else {
          v = p.cont_lo() + frac * (p.cont_hi() - p.cont_lo());
        }
        out.emplace_back(v);
      }
      break;
    }
    case ParamKind::kCategorical:
      for (const auto& c : p.categories()) out.emplace_back(c);
      break;
    case ParamKind::kBool:
      out.emplace_back(false);
      out.emplace_back(true);
      break;
  }
  return out;
}

}  // namespace

std::vector<Config> ConfigSpace::grid(std::size_t points_per_axis,
                                      std::size_t max_points) const {
  if (points_per_axis == 0)
    throw std::invalid_argument("grid: points_per_axis == 0");
  std::vector<std::vector<ParamValue>> axes;
  axes.reserve(params_.size());
  std::size_t total = 1;
  for (const auto& p : params_) {
    axes.push_back(axis_values(p, points_per_axis));
    if (total > max_points / axes.back().size())
      throw std::invalid_argument("grid: too many points");
    total *= axes.back().size();
  }

  std::vector<Config> out;
  out.reserve(total);
  std::vector<std::size_t> idx(params_.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    std::vector<ParamValue> values;
    values.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i)
      values.push_back(axes[i][idx[i]]);
    Config c(this, std::move(values));
    canonicalize(c);
    // Canonicalization may collapse grid points; dedup against the previous
    // few entries cheaply (full dedup happens in the baseline if needed).
    if (out.empty() || !(out.back() == c)) out.push_back(std::move(c));
    for (std::size_t i = params_.size(); i > 0; --i) {
      if (++idx[i - 1] < axes[i - 1].size()) break;
      idx[i - 1] = 0;
    }
  }
  return out;
}

std::optional<std::size_t> ConfigSpace::discrete_size() const {
  std::size_t total = 1;
  for (const auto& p : params_) {
    const std::size_t c = p.cardinality();
    if (c == 0) return std::nullopt;
    total *= c;
  }
  return total;
}

std::vector<Config> ConfigSpace::enumerate(std::size_t max_points) const {
  const auto size = discrete_size();
  if (!size)
    throw std::invalid_argument("enumerate: space has continuous parameters");
  if (*size > max_points) throw std::invalid_argument("enumerate: too large");
  // A full-cardinality grid visits every discrete value of every axis.
  std::size_t max_card = 1;
  for (const auto& p : params_) max_card = std::max(max_card, p.cardinality());
  return grid(max_card, max_points);
}

}  // namespace autodml::conf
