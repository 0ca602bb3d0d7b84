#pragma once

/// \file logging.hpp
/// Lightweight, thread-safe, leveled logging.
///
/// Every Ripple component owns a named Logger. Records flow to a global
/// sink which defaults to stderr; tests install a MemorySink to assert on
/// log output. Loggers may carry a clock callback so that records are
/// stamped with *simulation* time instead of wall time.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ripple/common/strutil.hpp"

namespace ripple::common {

enum class LogLevel { trace = 0, debug, info, warn, error, off };

[[nodiscard]] const char* to_string(LogLevel level) noexcept;

/// One emitted log record.
struct LogRecord {
  LogLevel level = LogLevel::info;
  std::string logger;   ///< name of the emitting Logger
  double time = -1.0;   ///< simulation (or wall) time, -1 when unknown
  std::string message;
};

/// Receives formatted records; implementations must be thread-safe.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Formats records as text lines on stderr.
class StderrSink final : public LogSink {
 public:
  void write(const LogRecord& record) override;

 private:
  std::mutex mutex_;
};

/// Formats each record as one compact JSON object per line (JSONL),
/// sim-time stamped, so logs can be interleaved with trace spans by
/// time. Lines are buffered in memory (for tests and programmatic
/// consumers) and optionally appended to a file as they arrive.
class JsonLinesSink final : public LogSink {
 public:
  /// `path` empty keeps the sink memory-only.
  explicit JsonLinesSink(std::string path = "");

  void write(const LogRecord& record) override;

  /// Every line written so far (without trailing newlines).
  [[nodiscard]] std::vector<std::string> lines() const;

  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
  std::string path_;
};

/// Buffers records in memory for inspection by tests.
class MemorySink final : public LogSink {
 public:
  void write(const LogRecord& record) override;

  [[nodiscard]] std::vector<LogRecord> records() const;
  [[nodiscard]] std::size_t count(LogLevel level) const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<LogRecord> records_;
};

/// Global logging configuration: threshold level and active sink.
class LogConfig {
 public:
  static LogConfig& global();

  void set_level(LogLevel level);
  [[nodiscard]] LogLevel level() const;

  /// Installs `sink`; passing nullptr restores the default stderr sink.
  void set_sink(std::shared_ptr<LogSink> sink);
  [[nodiscard]] std::shared_ptr<LogSink> sink() const;

 private:
  LogConfig();
  mutable std::mutex mutex_;
  LogLevel level_ = LogLevel::warn;
  std::shared_ptr<LogSink> sink_;
};

/// A named logging facade. Cheap to copy.
class Logger {
 public:
  using ClockFn = std::function<double()>;

  explicit Logger(std::string name, ClockFn clock = nullptr);

  void log(LogLevel level, const std::string& message) const;

  /// Leveled records whose message is `parts` concatenated by
  /// strutil::cat — formatted only when the level passes the threshold.
  template <typename... Parts>
  void trace(const Parts&... parts) const { emit(LogLevel::trace, parts...); }
  template <typename... Parts>
  void debug(const Parts&... parts) const { emit(LogLevel::debug, parts...); }
  template <typename... Parts>
  void info(const Parts&... parts) const { emit(LogLevel::info, parts...); }
  template <typename... Parts>
  void warn(const Parts&... parts) const { emit(LogLevel::warn, parts...); }
  template <typename... Parts>
  void error(const Parts&... parts) const { emit(LogLevel::error, parts...); }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  template <typename... Parts>
  void emit(LogLevel level, const Parts&... parts) const {
    if (level >= LogConfig::global().level()) {
      log(level, strutil::cat(parts...));
    }
  }

  std::string name_;
  ClockFn clock_;
};

}  // namespace ripple::common
