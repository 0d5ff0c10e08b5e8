#include "util/log.h"

#include <chrono>
#include <cstdio>

#include "util/annotations.h"

namespace autodml::util {

namespace {
// Serializes interleaved stderr writes; guards no members, so there is
// nothing for ADML_GUARDED_BY to name.
Mutex g_mutex;  // adml-lint: allow(D102 serializes a shared stream, not data)

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?????";
}
}  // namespace

void log_line(LogLevel level, std::string_view msg) {
  if (static_cast<int>(level) < static_cast<int>(kLogThreshold)) return;
  using clock = std::chrono::system_clock;
  const auto now = clock::now();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count();
  MutexLock lock(g_mutex);
  std::fprintf(stderr, "[%lld.%03lld %s] %.*s\n",
               static_cast<long long>(ms / 1000),
               static_cast<long long>(ms % 1000), tag(level),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace autodml::util
