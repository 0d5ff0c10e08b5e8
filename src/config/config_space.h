// Configuration space: an ordered set of parameters with conditional
// activation, plus the encoding used by surrogate models.
//
// Encoding. Surrogates (GPs) need points in a fixed-dimension continuous
// space. Each parameter maps to coordinates in [0,1]:
//   - kInt / kContinuous: one coordinate, linear or log over the range;
//   - kIntChoice: one coordinate, index / (n-1) over the menu;
//   - kBool: one coordinate, 0 or 1;
//   - kCategorical: one-hot block of #categories coordinates.
// Inactive conditional parameters are *canonicalized* to their default value
// before encoding so that two configs that differ only in dead knobs encode
// identically — without this, the surrogate would see phantom distance
// between behaviorally identical configurations.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/param.h"
#include "math/matrix.h"
#include "util/rng.h"

namespace autodml::conf {

class ConfigSpace;

/// One concrete configuration: values aligned with the space's parameter
/// order. Holds a non-owning pointer to its space, which must outlive it
/// (spaces are created once per workload and live for the whole run).
///
/// Lifetime contract. The space pointer is deliberately non-owning —
/// configs are copied in bulk on hot paths and must not pin a space alive.
/// To make violations loud instead of undefined, each Config carries a
/// weak reference to its space's liveness token: name-based accessors
/// (get_*/set_* via ref()) throw std::logic_error once the space is gone.
/// Index-based access (value_at) stays unchecked on purpose: warm-start
/// trials legitimately carry values from a destroyed space instance and
/// are re-bound via ConfigSpace::neighbor/validate before use.
class Config {
 public:
  Config() = default;
  Config(const ConfigSpace* space, std::vector<ParamValue> values);

  const ConfigSpace* space() const { return space_; }
  std::size_t size() const { return values_.size(); }
  const ParamValue& value_at(std::size_t i) const { return values_.at(i); }
  void set_value_at(std::size_t i, ParamValue v) {
    values_.at(i) = std::move(v);
  }

  std::int64_t get_int(std::string_view name) const;
  double get_double(std::string_view name) const;
  const std::string& get_cat(std::string_view name) const;

  void set_int(std::string_view name, std::int64_t v);
  void set_double(std::string_view name, double v);
  void set_cat(std::string_view name, std::string v);
  void set_bool(std::string_view name, bool v);

  bool operator==(const Config& other) const {
    return values_ == other.values_;
  }

  /// "name=value name=value ..." for active params; inactive params are
  /// rendered in brackets.
  std::string to_string() const;

 private:
  const ParamValue& ref(std::string_view name) const;
  ParamValue& mut_ref(std::string_view name);
  void require_space_alive() const;

  const ConfigSpace* space_ = nullptr;
  std::weak_ptr<const char> space_alive_;
  std::vector<ParamValue> values_;
};

class ConfigSpace {
 public:
  /// Adds a parameter. Conditional parents must already be present and be
  /// categorical or boolean. Names must be unique.
  void add(ParamSpec spec);

  std::size_t num_params() const { return params_.size(); }
  const ParamSpec& param(std::size_t i) const { return params_.at(i); }
  const ParamSpec& param(std::string_view name) const;
  std::size_t index_of(std::string_view name) const;
  bool contains(std::string_view name) const;

  /// Total unit-hypercube dimension (sum of encoded widths).
  std::size_t encoded_dimension() const;

  /// Config with every parameter at its default value, canonicalized.
  Config default_config() const;

  /// True when the parameter participates given the parent values in `c`.
  bool is_active(const Config& c, std::size_t param_index) const;

  /// Force every inactive conditional parameter to its default value.
  void canonicalize(Config& c) const;

  /// Throws std::invalid_argument naming the first offending parameter.
  void validate(const Config& c) const;

  /// Encode to [0,1]^encoded_dimension() (canonicalizes a copy first).
  math::Vec encode(const Config& c) const;

  /// Decode an arbitrary real vector (values clamped into [0,1]) to the
  /// nearest valid configuration, canonicalized.
  Config decode(std::span<const double> x) const;

  /// Uniform sample over the *raw* space (each param independently),
  /// canonicalized.
  Config sample_uniform(util::Rng& rng) const;

  /// Mutate one uniformly chosen *active* parameter of `c` to a nearby
  /// value: +-1 menu/step moves for discrete kinds, Gaussian step (sigma in
  /// encoded units) for continuous, resample for categorical, flip for bool.
  Config neighbor(const Config& c, util::Rng& rng, double sigma = 0.1) const;

  /// Full-factorial grid with up to `points_per_axis` distinct values per
  /// parameter (all values when the parameter has fewer). Intended for the
  /// grid-search baseline on small spaces; throws if the grid would exceed
  /// `max_points`.
  std::vector<Config> grid(std::size_t points_per_axis,
                           std::size_t max_points = 2'000'000) const;

  /// Number of distinct canonicalized configurations, if the space is fully
  /// discrete; nullopt when any continuous parameter exists.
  // Test surface: tests/config_test.cpp
  std::optional<std::size_t> discrete_size() const;

  /// Enumerate every canonicalized configuration of a fully discrete space
  /// (throws if continuous params exist or the count exceeds max_points).
  // Test surface: tests/bo_tuner_test.cpp
  std::vector<Config> enumerate(std::size_t max_points = 2'000'000) const;

  /// Liveness token handed to configs bound to this space; expires when the
  /// space is destroyed (see the Config lifetime contract above).
  std::weak_ptr<const char> liveness_token() const { return liveness_; }

 private:
  double encode_scalar(const ParamSpec& p, const ParamValue& v) const;
  ParamValue decode_scalar(const ParamSpec& p, double u) const;

  std::vector<ParamSpec> params_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>('\0');
};

}  // namespace autodml::conf
