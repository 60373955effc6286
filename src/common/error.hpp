#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace hdc {

/// Exception type thrown on any precondition / invariant / format violation
/// inside the library. `what()` is the message alone, so user-visible output
/// does not move with the source; `location()` keeps where it was raised.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message,
                 std::source_location loc = std::source_location::current());

  /// File (basename) and line where the error was raised.
  const std::string& location() const noexcept { return location_; }

 private:
  std::string location_;
};

namespace detail {
[[noreturn]] void raise_check_failure(const char* expr, const std::string& message,
                                      std::source_location loc);
}  // namespace detail

}  // namespace hdc

/// Precondition / invariant check. Always active (these guard API misuse and
/// file-format parsing, not hot inner loops).
#define HDC_CHECK(expr, message)                                                   \
  do {                                                                             \
    if (!(expr)) {                                                                 \
      ::hdc::detail::raise_check_failure(#expr, (message),                         \
                                         std::source_location::current());         \
    }                                                                              \
  } while (false)

/// Convenience form for argument validation without a custom message.
#define HDC_REQUIRE(expr) HDC_CHECK(expr, "requirement violated")
