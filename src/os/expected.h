// A minimal value-or-error sum type for fallible constructors and builders
// (std::expected is C++23; this tree builds as C++20). Used by the OS model's
// EnclaveBuilder and the serve layer's session API, which both return either
// a fully constructed value or a typed error — never a half-filled
// out-parameter.
//
// It holds a plain T and E, and E{} (KomErr::kSuccess, ServeErr::kNone)
// means ok, so an error is never built from E{}. A 4-byte T and E then
// return together in one register; a separate engaged flag would be stored
// as one byte and reloaded with the value as 8, a store-forwarding stall on
// every call.
#ifndef SRC_OS_EXPECTED_H_
#define SRC_OS_EXPECTED_H_

#include <cassert>
#include <type_traits>
#include <utility>

namespace komodo {

template <typename T, typename E>
class [[nodiscard]] Expected {
  static_assert(!std::is_same_v<T, E>, "value and error types must differ");
  static_assert(std::is_default_constructible_v<T> && std::is_default_constructible_v<E>);

 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  Expected(E error) : error_(error) {              // NOLINT(*-explicit-*)
    assert(error != E{});
  }

  bool ok() const { return error_ == E{}; }
  explicit operator bool() const { return ok(); }

  T& value() & {
    assert(ok());
    return value_;
  }
  const T& value() const& {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // Only meaningful when !ok().
  E error() const {
    assert(!ok());
    return error_;
  }

 private:
  T value_{};
  E error_{};
};

}  // namespace komodo

#endif  // SRC_OS_EXPECTED_H_
