// Lightweight error-handling vocabulary used across all NEESgrid modules.
//
// Status carries an error code plus a human-readable message; Result<T>
// carries either a value or a Status. Neither throws: distributed-control
// code paths (NTCP, coordinator) must be able to treat every failure as a
// recoverable event, which is the paper's central fault-tolerance claim.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace nees::util {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kFailedPrecondition,
  kTimeout,
  kUnavailable,       // transient: retry may succeed (network outage, busy)
  kAborted,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kDataLoss,
  kUnauthenticated,
  kPolicyViolation,   // site policy rejected a proposal (NTCP negotiation)
  kSafetyInterlock,   // hardware safety limit tripped
};

/// Human-readable name of an ErrorCode ("Ok", "Timeout", ...).
std::string_view ErrorCodeName(ErrorCode code);

/// A success/error status. Cheap to copy on the success path.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for errors where a retry of the same request is reasonable.
  bool transient() const {
    return code_ == ErrorCode::kTimeout || code_ == ErrorCode::kUnavailable;
  }

  /// "Timeout: link down" or "Ok".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return {ErrorCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {ErrorCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {ErrorCode::kAlreadyExists, std::move(msg)};
}
inline Status PermissionDenied(std::string msg) {
  return {ErrorCode::kPermissionDenied, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {ErrorCode::kFailedPrecondition, std::move(msg)};
}
inline Status TimeoutError(std::string msg) {
  return {ErrorCode::kTimeout, std::move(msg)};
}
inline Status Unavailable(std::string msg) {
  return {ErrorCode::kUnavailable, std::move(msg)};
}
inline Status Aborted(std::string msg) {
  return {ErrorCode::kAborted, std::move(msg)};
}
inline Status OutOfRange(std::string msg) {
  return {ErrorCode::kOutOfRange, std::move(msg)};
}
inline Status Unimplemented(std::string msg) {
  return {ErrorCode::kUnimplemented, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {ErrorCode::kInternal, std::move(msg)};
}
inline Status DataLoss(std::string msg) {
  return {ErrorCode::kDataLoss, std::move(msg)};
}
inline Status Unauthenticated(std::string msg) {
  return {ErrorCode::kUnauthenticated, std::move(msg)};
}
inline Status PolicyViolation(std::string msg) {
  return {ErrorCode::kPolicyViolation, std::move(msg)};
}
inline Status SafetyInterlock(std::string msg) {
  return {ErrorCode::kSafetyInterlock, std::move(msg)};
}

/// Value-or-Status. Accessing value() on an error aborts in debug builds.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}         // NOLINT(implicit)
  Result(Status status) : data_(std::move(status)) {   // NOLINT(implicit)
    assert(!std::get<Status>(data_).ok() &&
           "Result constructed from an OK status carries no value");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(data_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Value if ok, otherwise the supplied default.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace nees::util

/// Early-return helpers in the style of common HPC service codebases.
#define NEES_RETURN_IF_ERROR(expr)                        \
  do {                                                    \
    ::nees::util::Status nees_status_ = (expr);           \
    if (!nees_status_.ok()) return nees_status_;          \
  } while (false)

#define NEES_ASSIGN_OR_RETURN(lhs, expr)                  \
  NEES_ASSIGN_OR_RETURN_IMPL_(                            \
      NEES_CONCAT_(nees_result_, __LINE__), lhs, expr)

#define NEES_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr)       \
  auto var = (expr);                                      \
  if (!var.ok()) return var.status();                     \
  lhs = std::move(var).value()

#define NEES_CONCAT_(a, b) NEES_CONCAT_IMPL_(a, b)
#define NEES_CONCAT_IMPL_(a, b) a##b
