// Tiny leveled logger to stderr. Benchmarks print their tables to stdout;
// everything diagnostic goes through here so output stays parseable.
//
// Two output shapes, switched at runtime:
//   plain (default):  [INFO file.cc:42] message
//   JSON  (--log-json): {"ts":...,"level":"info","where":"file.cc:42",
//                        "msg":"message"}
// JSON mode emits exactly one object per line so serve logs and trace
// spans (src/obs/trace.h) interleave parseably on the same stream.

#ifndef KPLEX_UTIL_LOGGING_H_
#define KPLEX_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace kplex {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the minimum level that is emitted (default kInfo).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Parses "debug" / "info" / "warning" / "error" (also accepts "warn").
/// Returns false and leaves `out` untouched on an unknown name.
bool ParseLogLevel(const std::string& name, LogLevel* out);

/// Switches between the plain prefix format and one-JSON-object-per-line
/// output (default off).
void SetLogJson(bool enabled);
bool GetLogJson();

namespace internal {

/// Writes one already-formatted line to stderr under the log mutex so it
/// cannot interleave with a concurrent log message. Used by trace-span
/// emission; the line must not contain '\n'.
void EmitRawLine(const std::string& line);

/// Seconds since the Unix epoch, as used by the JSON "ts" field.
double WallClockSeconds();

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace kplex

#define KPLEX_LOG(level)                                               \
  ::kplex::internal::LogMessage(::kplex::LogLevel::k##level, __FILE__, \
                                __LINE__)                              \
      .stream()

#endif  // KPLEX_UTIL_LOGGING_H_
