#ifndef XPLAIN_UTIL_STATUS_H_
#define XPLAIN_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace xplain {

/// Machine-readable category of a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kUnimplemented = 5,
  kInternal = 6,
  kParseError = 7,
  kConstraintViolation = 8,
  kIoError = 9,
  kResourceExhausted = 10,
  kUnavailable = 11,
  kFailedPrecondition = 12,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// An Arrow-style operation outcome: either OK, or a code plus message.
///
/// The OK status carries no allocation; error states allocate a small
/// shared state. Statuses are cheap to copy and move.
///
/// The class is [[nodiscard]]: any function returning Status by value
/// fails to compile under -Werror when the caller drops the return.
/// Intentional drops must be explicit: `(void)expr;` or the
/// XPLAIN_IGNORE_ERROR helper below.
/// Thread-safety: a const Status is safe to read concurrently; mutation
/// is externally synchronized (value semantics, no shared state).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message);

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status AlreadyExists(std::string message) {
    return Status(StatusCode::kAlreadyExists, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status Unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status ParseError(std::string message) {
    return Status(StatusCode::kParseError, std::move(message));
  }
  static Status ConstraintViolation(std::string message) {
    return Status(StatusCode::kConstraintViolation, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }

  [[nodiscard]] bool ok() const { return state_ == nullptr; }
  [[nodiscard]] StatusCode code() const {
    return ok() ? StatusCode::kOk : state_->code;
  }
  /// The error message; empty for OK.
  [[nodiscard]] const std::string& message() const;

  /// "OK" or "<CodeName>: <message>".
  [[nodiscard]] std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const State> state_;
};

/// Explicitly discards a Status/Result, e.g. for best-effort cleanup paths.
/// Grep-able, unlike a bare (void) cast.
template <typename T>
void IgnoreError(T&&) {}

}  // namespace xplain

/// Propagates a non-OK Status from the enclosing function.
#define XPLAIN_RETURN_IF_ERROR(expr)               \
  do {                                             \
    ::xplain::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (false)

/// Explicitly drops an error return. Use sparingly; prefer propagation.
#define XPLAIN_IGNORE_ERROR(expr) ::xplain::IgnoreError((expr))

#endif  // XPLAIN_UTIL_STATUS_H_
