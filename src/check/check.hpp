// Runtime invariant checking for the simulator (the correctness-tooling
// layer). Three macros with formatted, source-located diagnostics:
//
//   VDC_ASSERT(cond)                 — precondition/sanity check
//   VDC_ASSERT(cond, "x=" << x)      — with a streamed message
//   VDC_INVARIANT(cond, ...)         — a *model* invariant (something the
//                                      paper's equations guarantee); same
//                                      mechanics, distinct diagnostic label
//   VDC_UNREACHABLE(...)             — marks impossible control flow
//
// Failures throw `vdc::check::CheckFailure` so tests can prove an invariant
// fires (EXPECT_THROW) and long sweeps abort the offending scenario instead
// of silently producing physically meaningless results.
//
// The checks compile out when `VDC_CHECKS_ENABLED` is 0 (CMake:
// `-DVDC_CHECKS=OFF`, which defines VDC_CHECKS_OFF): conditions and
// messages are parsed but never evaluated, so hot paths carry zero cost.
// A translation unit may also `#define VDC_CHECKS_ENABLED 0` before
// including this header to opt out locally (used by the no-op tests).
#pragma once

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#if !defined(VDC_CHECKS_ENABLED)
#if defined(VDC_CHECKS_OFF)
#define VDC_CHECKS_ENABLED 0
#else
#define VDC_CHECKS_ENABLED 1
#endif
#endif

namespace vdc::check {

/// Thrown by every failed check. Derives from std::logic_error: a check
/// failure is a programming/model error, never a recoverable condition.
class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Formats "<file>:<line>: <function>: <kind> failed: <expression> — <message>"
/// and throws CheckFailure. Always compiled (the macros gate the call sites).
[[noreturn]] void fail(const char* kind, const char* expression, const std::string& message,
                       const char* file, long line, const char* function);

/// Exact-zero test for quantities whose zero is *assigned*, never computed:
/// a sleeping server's capacity, a failed server's power draw. These values
/// are set to literal 0.0 by the state machine, so bitwise equality is the
/// contract — a tolerance would mask a state-machine bug that leaves a
/// residual epsilon behind. Do not use on arithmetic results. Accepts -0.0.
[[nodiscard]] constexpr bool is_exactly_zero(double value) noexcept {
  // vdc-lint: float-eq-ok this helper IS the documented exactness contract
  return value == 0.0;
}

namespace detail {

/// Minimal ostream wrapper so the macros accept `"a=" << a << " b=" << b`
/// as a single message argument.
class MessageStream {
 public:
  template <typename T>
  MessageStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }
  [[nodiscard]] std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace vdc::check

#if VDC_CHECKS_ENABLED

#define VDC_CHECK_IMPL_(kind, cond, ...)                                              \
  do {                                                                                \
    if (!(cond)) [[unlikely]] {                                                       \
      ::vdc::check::fail(                                                             \
          kind, #cond,                                                                \
          (::vdc::check::detail::MessageStream{} __VA_OPT__(<< __VA_ARGS__)).str(),   \
          __FILE__, __LINE__, __func__);                                              \
    }                                                                                 \
  } while (false)

#define VDC_ASSERT(cond, ...) VDC_CHECK_IMPL_("assertion", cond, __VA_ARGS__)
#define VDC_INVARIANT(cond, ...) VDC_CHECK_IMPL_("invariant", cond, __VA_ARGS__)
#define VDC_UNREACHABLE(...)                                                          \
  ::vdc::check::fail(                                                                 \
      "unreachable", "reached",                                                       \
      (::vdc::check::detail::MessageStream{} __VA_OPT__(<< __VA_ARGS__)).str(),       \
      __FILE__, __LINE__, __func__)

#else  // VDC_CHECKS_ENABLED == 0: parse but never evaluate.

// Both the condition and the message sit in sizeof operands: they are
// type-checked and their names count as used, but no code is generated.
#define VDC_CHECK_NOOP_(cond, ...)                                                    \
  static_cast<void>(sizeof((cond) ? 1 : 0)                                            \
                    + sizeof(::vdc::check::detail::MessageStream{}                    \
                                 __VA_OPT__(<< __VA_ARGS__)))
#define VDC_ASSERT(cond, ...) VDC_CHECK_NOOP_(cond, __VA_ARGS__)
#define VDC_INVARIANT(cond, ...) VDC_CHECK_NOOP_(cond, __VA_ARGS__)
#if defined(__GNUC__) || defined(__clang__)
#define VDC_UNREACHABLE(...) __builtin_unreachable()
#else
#define VDC_UNREACHABLE(...) ::std::abort()
#endif

#endif  // VDC_CHECKS_ENABLED
