// Typed errors for the tuning service protocol.
//
// Every failure a client can cause — malformed frame, unknown session,
// exhausted budget — is reported as a ServiceError carrying a stable
// machine-readable code; the protocol layer turns it into an
// {"ok": false, "error": <code>, "detail": <what>} response. Nothing a
// client sends may crash the daemon or corrupt a session: handlers throw,
// the dispatcher catches, the session's state is untouched (ops mutate
// tuner state only after validation succeeds).
#pragma once

#include <stdexcept>
#include <string>

namespace autodml::service {

/// Stable protocol error codes (the "error" field of a failure response).
namespace errc {
inline constexpr const char* kBadFrame = "bad-frame";
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kUnknownOp = "unknown-op";
inline constexpr const char* kUnknownSession = "unknown-session";
inline constexpr const char* kSessionExists = "session-exists";
inline constexpr const char* kSessionClosed = "session-closed";
inline constexpr const char* kUnknownTicket = "unknown-ticket";
inline constexpr const char* kBudgetExhausted = "budget-exhausted";
inline constexpr const char* kTooManyPending = "too-many-pending";
inline constexpr const char* kTooManySessions = "too-many-sessions";
inline constexpr const char* kJournalInUse = "journal-in-use";
inline constexpr const char* kInvalidSpace = "invalid-space";
inline constexpr const char* kInvalidOutcome = "invalid-outcome";
inline constexpr const char* kInternal = "internal";
}  // namespace errc

class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string code, const std::string& detail)
      : std::runtime_error(detail), code_(std::move(code)) {}

  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Runs `parse` (a call into the shared codecs, util/json and
/// core/session_io) and rethrows the std::invalid_argument it raises as a
/// ServiceError with `code`.
template <typename Parse>
decltype(auto) with_code(const char* code, Parse&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    throw ServiceError(code, e.what());
  }
}

}  // namespace autodml::service
