#include "service/space_json.h"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/error.h"

namespace autodml::service {

namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

bool optional_bool(const JsonValue& object, std::string_view key,
                   const std::string& where) {
  return object.contains(key) && util::require_bool(object, key, where);
}

/// Throws std::invalid_argument; space_from_json maps it to invalid-space.
conf::ParamSpec spec_from_json(const JsonValue& value) {
  using std::invalid_argument;
  if (!value.is_object())
    throw invalid_argument("every param must be an object");
  const std::string name = util::require_string(value, "name", "param");
  const std::string where = "param '" + name + "'";
  const std::string kind = util::require_string(value, "kind", where);

  std::optional<conf::ParamSpec> spec;
  if (kind == "int") {
    spec = conf::ParamSpec::integer(name, util::require_int(value, "lo", where),
                                    util::require_int(value, "hi", where),
                                    optional_bool(value, "log", where));
  } else if (kind == "int-choice") {
    const JsonValue& choices = util::require(value, "choices", where);
    if (!choices.is_array())
      throw invalid_argument(where + ": 'choices' must be an array");
    std::vector<std::int64_t> menu;
    for (const JsonValue& c : choices.as_array()) {
      if (!c.is_number() || c.as_number() != std::floor(c.as_number()))
        throw invalid_argument(where + ": every choice must be an integer");
      menu.push_back(static_cast<std::int64_t>(c.as_number()));
    }
    spec = conf::ParamSpec::int_choice(name, std::move(menu));
  } else if (kind == "continuous") {
    spec = conf::ParamSpec::continuous(
        name, util::require_number(value, "lo", where),
        util::require_number(value, "hi", where),
        optional_bool(value, "log", where));
  } else if (kind == "categorical") {
    const JsonValue& cats = util::require(value, "categories", where);
    if (!cats.is_array())
      throw invalid_argument(where + ": 'categories' must be an array");
    std::vector<std::string> categories;
    for (const JsonValue& c : cats.as_array()) {
      if (!c.is_string())
        throw invalid_argument(where + ": every category must be a string");
      categories.push_back(c.as_string());
    }
    spec = conf::ParamSpec::categorical(name, std::move(categories));
  } else if (kind == "bool") {
    spec = conf::ParamSpec::boolean(name);
  } else {
    throw invalid_argument(where + ": unknown kind '" + kind + "'");
  }

  if (value.contains("only_when")) {
    const JsonValue& cond = value.at("only_when");
    const std::string cwhere = where + ": only_when";
    const std::string parent = util::require_string(cond, "parent", cwhere);
    const JsonValue& values = util::require(cond, "values", cwhere);
    if (!values.is_array())
      throw invalid_argument(cwhere + ": 'values' must be an array");
    std::vector<std::string> parent_values;
    for (const JsonValue& v : values.as_array()) {
      if (!v.is_string())
        throw invalid_argument(cwhere + ": every value must be a string");
      parent_values.push_back(v.as_string());
    }
    spec->only_when(parent, std::move(parent_values));
  }
  return *std::move(spec);
}

}  // namespace

JsonValue space_to_json(const conf::ConfigSpace& space) {
  JsonArray params;
  params.reserve(space.num_params());
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    const conf::ParamSpec& p = space.param(i);
    JsonObject out;
    out.emplace("name", JsonValue(p.name()));
    switch (p.kind()) {
      case conf::ParamKind::kInt:
        out.emplace("kind", JsonValue("int"));
        out.emplace("lo", JsonValue(static_cast<double>(p.int_lo())));
        out.emplace("hi", JsonValue(static_cast<double>(p.int_hi())));
        if (p.log_scale()) out.emplace("log", JsonValue(true));
        break;
      case conf::ParamKind::kIntChoice: {
        out.emplace("kind", JsonValue("int-choice"));
        JsonArray choices;
        for (std::int64_t c : p.int_choices())
          choices.push_back(JsonValue(static_cast<double>(c)));
        out.emplace("choices", JsonValue(std::move(choices)));
        break;
      }
      case conf::ParamKind::kContinuous:
        out.emplace("kind", JsonValue("continuous"));
        out.emplace("lo", JsonValue(p.cont_lo()));
        out.emplace("hi", JsonValue(p.cont_hi()));
        if (p.log_scale()) out.emplace("log", JsonValue(true));
        break;
      case conf::ParamKind::kCategorical: {
        out.emplace("kind", JsonValue("categorical"));
        JsonArray categories;
        for (const std::string& c : p.categories())
          categories.push_back(JsonValue(c));
        out.emplace("categories", JsonValue(std::move(categories)));
        break;
      }
      case conf::ParamKind::kBool:
        out.emplace("kind", JsonValue("bool"));
        break;
    }
    if (p.is_conditional()) {
      JsonObject cond;
      cond.emplace("parent", JsonValue(p.parent()));
      JsonArray values;
      for (const std::string& v : p.parent_values())
        values.push_back(JsonValue(v));
      cond.emplace("values", JsonValue(std::move(values)));
      out.emplace("only_when", JsonValue(std::move(cond)));
    }
    params.push_back(JsonValue(std::move(out)));
  }
  JsonObject root;
  root.emplace("params", JsonValue(std::move(params)));
  return JsonValue(std::move(root));
}

conf::ConfigSpace space_from_json(const JsonValue& value) {
  try {
    if (!value.is_object() || !value.contains("params"))
      throw std::invalid_argument("must be an object with a 'params' array");
    const JsonValue& params = value.at("params");
    if (!params.is_array() || params.as_array().empty())
      throw std::invalid_argument("'params' must be a non-empty array");
    conf::ConfigSpace space;
    // ConfigSpace::add and the ParamSpec factories reject inverted bounds,
    // duplicate names, bad parents, ... — all client errors too.
    for (const JsonValue& p : params.as_array()) space.add(spec_from_json(p));
    return space;
  } catch (const std::invalid_argument& e) {
    throw ServiceError(errc::kInvalidSpace, std::string("space: ") + e.what());
  }
}

conf::Config config_from_json(const JsonValue& value,
                              const conf::ConfigSpace& space) {
  return with_code(errc::kBadRequest,
                   [&] { return core::config_from_json(value, space); });
}

}  // namespace autodml::service
