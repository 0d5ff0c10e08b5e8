// The tuning service wire protocol: line-delimited JSON request/response.
//
// One request per line, one response line per request, in order. Every
// request is an object with an "op" string; ops addressing a session carry
// a "session" id. An optional "id" member (any JSON value) is echoed
// verbatim in the response so pipelined clients can correlate.
//
//   request  := {"op": <op>, "session"?: s, "id"?: v, ...op fields}
//   response := {"ok": true,  "id"?: v, ...op fields}
//             | {"ok": false, "id"?: v, "error": <code>, "detail": s}
//
// Ops: create-session, suggest, report, status, close-session, ping,
// stats, shutdown — grammar and a full transcript in README.md §Service.
// This header holds the pieces shared by the session manager, the tests
// and the CLI: request parsing, response framing, typed request-field
// access, and the RunOutcome wire form. The outcome codec is the journal
// record's (core/session_io); this layer only maps its errors onto the
// protocol's typed codes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/session_io.h"
#include "util/json.h"

namespace autodml::service {

/// Parsed request envelope. `body` is the whole request object.
struct Request {
  std::string op;
  std::string session;           // empty when absent
  util::JsonValue id;            // null when absent
  bool has_id = false;
  util::JsonValue body;
};

/// Parse one frame. Throws ServiceError(bad-frame) on malformed JSON or a
/// non-object root, ServiceError(bad-request) on a missing/ill-typed "op".
Request parse_request(std::string_view line);

/// Success/failure response lines (no trailing newline). `fields` is
/// merged into the response object; `ok` and (on failure) `error`/`detail`
/// are reserved keys.
std::string ok_line(const Request& request, util::JsonObject fields);
std::string error_line(const Request& request, const std::string& code,
                       const std::string& detail);

/// RunOutcome <-> wire JSON: the journal record's "outcome" object
/// (core/session_io). Parsing throws ServiceError(invalid-outcome).
using core::outcome_to_json;
core::RunOutcome outcome_from_json(const util::JsonValue& value);

// util/json's typed accessors for request fields; throw
// ServiceError(bad-request) naming the field.
const util::JsonValue& require_field(const util::JsonValue& object,
                                     std::string_view key,
                                     std::string_view where);
bool require_bool_field(const util::JsonValue& object, std::string_view key,
                        std::string_view where);
std::string require_string_field(const util::JsonValue& object,
                                 std::string_view key,
                                 std::string_view where);
double require_number_field(const util::JsonValue& object,
                            std::string_view key, std::string_view where);
std::int64_t require_int_field(const util::JsonValue& object,
                               std::string_view key, std::string_view where);

}  // namespace autodml::service
