#include "common/error.hpp"

#include <cstring>
#include <sstream>

namespace hdc {
namespace {

std::string basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? std::string(slash + 1) : std::string(path);
}

std::string format_location(const std::source_location& loc) {
  std::ostringstream os;
  os << basename_of(loc.file_name()) << ":" << loc.line();
  return os.str();
}

}  // namespace

Error::Error(const std::string& message, std::source_location loc)
    : std::runtime_error(message), location_(format_location(loc)) {}

namespace detail {

void raise_check_failure(const char* expr, const std::string& message,
                         std::source_location loc) {
  std::ostringstream os;
  os << message << " (check failed: " << expr << ")";
  throw Error(os.str(), loc);
}

}  // namespace detail
}  // namespace hdc
