#pragma once

/// \file logging.h
/// \brief Minimal leveled logger with a process-wide threshold.
///
/// Usage: `WQE_LOG(INFO) << "indexed " << n << " docs";`
/// Output goes to stderr so bench/table output on stdout stays clean.
///
/// The threshold comes from the `WQE_LOG_LEVEL` environment variable at
/// first use (`debug`/`info`/`warning`/`error`, case-insensitive, or
/// 0–3); an explicit `SetLogLevel` call wins over the environment
/// regardless of ordering.  When a trace is in scope (see
/// common/deadline.h and obs/trace.h), log lines carry its id:
///
///   [INFO server.cc:42 trace=1b2e9d0c4f5a6b7c] served request

#include <sstream>
#include <string>

namespace wqe {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Returns the current process-wide minimum level (default kInfo).
LogLevel GetLogLevel();

/// \brief Sets the process-wide minimum level.
void SetLogLevel(LogLevel level);

namespace internal {

/// One log statement; flushes to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace wqe

#define WQE_LOG(severity)                                              \
  ::wqe::internal::LogMessage(::wqe::LogLevel::k##severity, __FILE__,  \
                              __LINE__)
