#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "util/json_escape.h"

namespace kplex {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<bool> g_log_json{false};
std::mutex g_log_mutex;

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

const char* LevelNameLower(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarning:
      return "warning";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

const char* Basename(const char* file) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  if (name == "debug") {
    *out = LogLevel::kDebug;
  } else if (name == "info") {
    *out = LogLevel::kInfo;
  } else if (name == "warning" || name == "warn") {
    *out = LogLevel::kWarning;
  } else if (name == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void SetLogJson(bool enabled) {
  g_log_json.store(enabled, std::memory_order_relaxed);
}

bool GetLogJson() { return g_log_json.load(std::memory_order_relaxed); }

namespace internal {

void EmitRawLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "%s\n", line.c_str());
}

double WallClockSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  const char* base = Basename(file_);
  std::string line;
  if (GetLogJson()) {
    char head[96];
    std::snprintf(head, sizeof(head), "{\"ts\":%.6f,\"level\":\"%s\",",
                  WallClockSeconds(), LevelNameLower(level_));
    line = head;
    line += "\"where\":\"";
    AppendJsonEscaped(line, base);
    char where_tail[16];
    std::snprintf(where_tail, sizeof(where_tail), ":%d", line_);
    line += where_tail;
    line += "\",\"msg\":\"";
    AppendJsonEscaped(line, stream_.str());
    line += "\"}";
  } else {
    char head[64];
    std::snprintf(head, sizeof(head), "[%s ", LevelName(level_));
    line = head;
    line += base;
    char tail[16];
    std::snprintf(tail, sizeof(tail), ":%d] ", line_);
    line += tail;
    line += stream_.str();
  }
  EmitRawLine(line);
}

}  // namespace internal
}  // namespace kplex
