// Lightweight error-handling vocabulary used throughout the library.
//
// Most fallible operations return Status or Result<T> rather than throwing;
// exceptions are reserved for programmer errors surfaced via PS_CHECK.
#ifndef SRC_SUPPORT_STATUS_H_
#define SRC_SUPPORT_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace pkrusafe {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kPermissionDenied,
  kUnavailable,
};

// Returns a stable human-readable name, e.g. "INVALID_ARGUMENT".
const char* StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on the success path (no message
// allocation), carries a code + message on error.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
inline Status AlreadyExistsError(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status OutOfRangeError(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status UnimplementedError(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status InternalError(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
inline Status PermissionDeniedError(std::string msg) {
  return Status(StatusCode::kPermissionDenied, std::move(msg));
}
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}

// A value-or-error. Result<T> holds either a T or a non-OK Status.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : rep_(std::move(value)) {}
  Result(Status status) : rep_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    const Status* error = std::get_if<Status>(&rep_);
    return error != nullptr ? *error : kOkStatus;
  }

  T& value() & { return std::get<T>(rep_); }
  const T& value() const& { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::get<T>(std::move(rep_)); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  // A class-scope constant rather than a function-local static: no guard
  // call on the success path, which also lets GCC 12 see that ~Result never
  // destroys a Status it did not hold (no -Wmaybe-uninitialized).
  static inline const Status kOkStatus;
  std::variant<T, Status> rep_;
};

#define PS_RETURN_IF_ERROR(expr)        \
  do {                                  \
    ::pkrusafe::Status ps_status_ = (expr); \
    if (!ps_status_.ok()) {             \
      return ps_status_;                \
    }                                   \
  } while (0)

#define PS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) {                               \
    return tmp.status();                         \
  }                                              \
  lhs = std::move(tmp).value()

#define PS_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define PS_ASSIGN_OR_RETURN_NAME(a, b) PS_ASSIGN_OR_RETURN_CONCAT(a, b)
#define PS_ASSIGN_OR_RETURN(lhs, expr) \
  PS_ASSIGN_OR_RETURN_IMPL(PS_ASSIGN_OR_RETURN_NAME(ps_result_, __LINE__), lhs, expr)

}  // namespace pkrusafe

#endif  // SRC_SUPPORT_STATUS_H_
