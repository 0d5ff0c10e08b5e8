// Minimal JSON value, parser, serializer, and typed member access.
//
// Exists so tuning sessions can be persisted and reloaded (core/session_io)
// and served over the wire (service/) without dragging in an external
// dependency. Supports the full JSON data model except: numbers are always
// doubles (integers round-trip exactly up to 2^53, far beyond any knob in
// this library), and \uXXXX escapes outside the ASCII range are passed
// through verbatim.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace autodml::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  // Accessors throw std::bad_variant_access on type mismatch.
  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member access; throws std::out_of_range when missing.
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const;

  bool operator==(const JsonValue& other) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Parse a complete JSON document; throws std::invalid_argument with a
/// character offset on malformed input (including trailing garbage).
JsonValue parse_json(std::string_view text);

/// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
std::string dump_json(const JsonValue& value, int indent = 0);

// Typed member access for documents that arrive from outside (files,
// sockets): a missing member or a type mismatch throws
// std::invalid_argument "<where>: missing '<key>'" or "<where>: '<key>'
// must be ...", never std::bad_variant_access. A non-object `object` has
// no members.
const JsonValue& require(const JsonValue& object, std::string_view key,
                         std::string_view where);
bool require_bool(const JsonValue& object, std::string_view key,
                  std::string_view where);
double require_number(const JsonValue& object, std::string_view key,
                      std::string_view where);
/// A number with no fractional part, in the range of int64_t.
std::int64_t require_int(const JsonValue& object, std::string_view key,
                         std::string_view where);
const std::string& require_string(const JsonValue& object,
                                  std::string_view key,
                                  std::string_view where);

}  // namespace autodml::util
