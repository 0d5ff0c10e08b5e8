// Minimal leveled logger.
//
// Not a general-purpose logging framework: AutoDML is a library first, so the
// logger is a thin, thread-safe veneer over stderr that benches and examples
// use for progress lines. Library code logs sparingly (warnings only).
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace autodml::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Minimum level; messages below it are dropped.
inline constexpr LogLevel kLogThreshold = LogLevel::kInfo;

/// Emit one line (timestamp, level tag, message) to stderr. Thread-safe.
void log_line(LogLevel level, std::string_view msg);

namespace detail {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() { log_line(level_, os_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail

}  // namespace autodml::util

#define ADML_LOG(level)                                              \
  if (static_cast<int>(level) <                                      \
      static_cast<int>(::autodml::util::kLogThreshold)) {            \
  } else                                                             \
    ::autodml::util::detail::LogStream(level)

#define ADML_DEBUG ADML_LOG(::autodml::util::LogLevel::kDebug)
#define ADML_INFO ADML_LOG(::autodml::util::LogLevel::kInfo)
#define ADML_WARN ADML_LOG(::autodml::util::LogLevel::kWarn)
#define ADML_ERROR ADML_LOG(::autodml::util::LogLevel::kError)
