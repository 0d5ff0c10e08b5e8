#include "service/protocol.h"

#include "service/error.h"

namespace autodml::service {

namespace {

using util::JsonObject;
using util::JsonValue;

}  // namespace

const JsonValue& require_field(const JsonValue& object, std::string_view key,
                               std::string_view where) {
  return with_code(errc::kBadRequest, [&]() -> const JsonValue& {
    return util::require(object, key, where);
  });
}

bool require_bool_field(const JsonValue& object, std::string_view key,
                        std::string_view where) {
  return with_code(errc::kBadRequest,
                   [&] { return util::require_bool(object, key, where); });
}

std::string require_string_field(const JsonValue& object, std::string_view key,
                                 std::string_view where) {
  return with_code(errc::kBadRequest,
                   [&] { return util::require_string(object, key, where); });
}

double require_number_field(const JsonValue& object, std::string_view key,
                            std::string_view where) {
  return with_code(errc::kBadRequest,
                   [&] { return util::require_number(object, key, where); });
}

std::int64_t require_int_field(const JsonValue& object, std::string_view key,
                               std::string_view where) {
  return with_code(errc::kBadRequest,
                   [&] { return util::require_int(object, key, where); });
}

Request parse_request(std::string_view line) {
  JsonValue body(nullptr);
  try {
    body = util::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw ServiceError(errc::kBadFrame, e.what());
  }
  if (!body.is_object())
    throw ServiceError(errc::kBadFrame, "request must be a JSON object");

  Request request;
  if (body.contains("id")) {
    request.id = body.at("id");
    request.has_id = true;
  }
  request.body = std::move(body);
  request.op = require_string_field(request.body, "op", "request");
  if (request.body.contains("session"))
    request.session = require_string_field(request.body, "session", "request");
  return request;
}

std::string ok_line(const Request& request, JsonObject fields) {
  fields.emplace("ok", JsonValue(true));
  if (request.has_id) fields.emplace("id", request.id);
  return util::dump_json(JsonValue(std::move(fields)));
}

std::string error_line(const Request& request, const std::string& code,
                       const std::string& detail) {
  JsonObject fields;
  fields.emplace("ok", JsonValue(false));
  fields.emplace("error", JsonValue(code));
  fields.emplace("detail", JsonValue(detail));
  if (request.has_id) fields.emplace("id", request.id);
  return util::dump_json(JsonValue(std::move(fields)));
}

core::RunOutcome outcome_from_json(const JsonValue& value) {
  return with_code(errc::kInvalidOutcome,
                   [&] { return core::outcome_from_json(value); });
}

}  // namespace autodml::service
