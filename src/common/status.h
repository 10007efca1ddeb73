// Status and Result<T>: exception-free error handling for the fairtopk
// public API. Modeled on the absl::Status / absl::StatusOr idiom used
// throughout database engines (see e.g. RocksDB's rocksdb::Status).
#ifndef FAIRTOPK_COMMON_STATUS_H_
#define FAIRTOPK_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace fairtopk {

/// Machine-readable error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
  kUnimplemented = 6,
  kIoError = 7,
  kCorruption = 8,
  kChecksumMismatch = 9,
  kVersionMismatch = 10,
  kTruncated = 11,
  kResourceExhausted = 12,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value returned by fallible fairtopk operations.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// message describing what went wrong. Statuses are cheap to copy and
/// never throw.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message. An empty
  /// message is permitted but discouraged for error codes.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ChecksumMismatch(std::string msg) {
    return Status(StatusCode::kChecksumMismatch, std::move(msg));
  }
  static Status VersionMismatch(std::string msg) {
    return Status(StatusCode::kVersionMismatch, std::move(msg));
  }
  static Status Truncated(std::string msg) {
    return Status(StatusCode::kTruncated, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The error category (kOk for success statuses).
  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// Formats the status as "CODE: message" (or "OK").
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. The discriminated-union
/// analogue of absl::StatusOr for this codebase.
///
/// Accessing value() on an error Result is a programming error and
/// asserts in debug builds.
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Constructs a failed result from a non-OK status.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires an error status");
  }

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  /// The status; OK when a value is present.
  const Status& status() const { return status_; }

  /// The held value. Requires ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace fairtopk

/// Propagates an error status from an expression returning Status.
#define FAIRTOPK_RETURN_IF_ERROR(expr)           \
  do {                                           \
    ::fairtopk::Status _ftk_status = (expr);     \
    if (!_ftk_status.ok()) return _ftk_status;   \
  } while (false)

/// Assigns the value of a Result expression to `lhs`, or returns its
/// error status. `lhs` may include a declaration, e.g.
/// FAIRTOPK_ASSIGN_OR_RETURN(auto table, LoadCsv(path));
#define FAIRTOPK_ASSIGN_OR_RETURN(lhs, expr)                  \
  FAIRTOPK_ASSIGN_OR_RETURN_IMPL_(                            \
      FAIRTOPK_STATUS_CONCAT_(_ftk_result, __LINE__), lhs, expr)

#define FAIRTOPK_STATUS_CONCAT_INNER_(a, b) a##b
#define FAIRTOPK_STATUS_CONCAT_(a, b) FAIRTOPK_STATUS_CONCAT_INNER_(a, b)
#define FAIRTOPK_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

#endif  // FAIRTOPK_COMMON_STATUS_H_
