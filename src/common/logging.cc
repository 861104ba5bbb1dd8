#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/deadline.h"

namespace wqe {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};
/// An explicit SetLogLevel wins over WQE_LOG_LEVEL even when the first
/// log statement runs later.
std::atomic<bool> g_level_explicit{false};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

bool ParseLevel(const char* text, LogLevel* out) {
  std::string lower;
  for (const char* p = text; *p != '\0'; ++p) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (lower == "debug" || lower == "0") *out = LogLevel::kDebug;
  else if (lower == "info" || lower == "1") *out = LogLevel::kInfo;
  else if (lower == "warning" || lower == "warn" || lower == "2")
    *out = LogLevel::kWarning;
  else if (lower == "error" || lower == "3") *out = LogLevel::kError;
  else return false;
  return true;
}

/// Applies WQE_LOG_LEVEL once, on the first threshold read.
void EnsureEnvApplied() {
  static const bool applied = [] {
    const char* env = std::getenv("WQE_LOG_LEVEL");
    if (env == nullptr || *env == '\0') return true;
    LogLevel level;
    if (!ParseLevel(env, &level)) {
      std::fprintf(stderr,
                   "[WARN logging.cc] unrecognized WQE_LOG_LEVEL '%s' "
                   "(want debug|info|warning|error or 0-3); keeping "
                   "default\n",
                   env);
      return true;
    }
    if (!g_level_explicit.load()) {
      g_log_level.store(static_cast<int>(level));
    }
    return true;
  }();
  (void)applied;
}
}  // namespace

LogLevel GetLogLevel() {
  EnsureEnvApplied();
  return static_cast<LogLevel>(g_log_level.load());
}

void SetLogLevel(LogLevel level) {
  g_level_explicit.store(true);
  g_log_level.store(static_cast<int>(level));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  EnsureEnvApplied();
  enabled_ = static_cast<int>(level) >= g_log_level.load();
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line;
    // Tag with the active trace so one request's lines correlate across
    // threads (the pool re-installs the submitter's context).
    const common::TracePosition& ctx = common::CurrentRequestContext().trace;
    if (ctx.active()) {
      char trace[32];
      std::snprintf(trace, sizeof(trace), " trace=%016llx",
                    static_cast<unsigned long long>(ctx.trace_id));
      stream_ << trace;
    }
    stream_ << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::cerr << stream_.str();
  }
}

}  // namespace internal
}  // namespace wqe
