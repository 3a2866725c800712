#ifndef DEEPLAKE_UTIL_RESULT_H_
#define DEEPLAKE_UTIL_RESULT_H_

#include <cassert>
#include <cstdlib>
#include <utility>
#include <variant>

#include "util/status.h"

namespace dl {

/// Value-or-error, the return type of fallible operations that produce a
/// value. Mirrors `arrow::Result<T>`.
///
/// A `Result<T>` is always in exactly one of two states: it holds a value
/// (and `ok()` is true) or it holds a non-OK `Status`. Accessing the value
/// of a non-OK result aborts the process — callers must check `ok()` or use
/// the `DL_ASSIGN_OR_RETURN` macro (see macros.h).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a result holding `value`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a result holding a non-OK status. Aborts if `status` is OK:
  /// an OK status carries no value and would leave the result unusable.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {
    if (std::get<Status>(repr_).ok()) {
      assert(false && "Result<T> constructed from OK status");
      std::abort();
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns the held status; OK when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  const T& value() const& {
    CheckOk();
    return std::get<T>(repr_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(repr_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(repr_));
  }

  /// Moves the value out of the result. The result must be OK.
  T MoveValue() {
    CheckOk();
    return std::get<T>(std::move(repr_));
  }

  /// Returns the value, or `fallback` when the result is an error.
  T ValueOr(T fallback) const& {
    if (ok()) return std::get<T>(repr_);
    return fallback;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      assert(false && "accessed value of non-OK Result");
      std::abort();
    }
  }

  std::variant<T, Status> repr_;
};

/// The status of a Status- or Result<T>-returning call, so one generic
/// wrapper (a retry loop, a timing decorator) serves both kinds.
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace dl

#endif  // DEEPLAKE_UTIL_RESULT_H_
