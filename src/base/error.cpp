#include "base/error.h"

#include <string_view>

namespace mhs::detail {

namespace {
/// `file` from its last `src/` directory on. Error text travels (the
/// service puts it on the wire), so it names a library source by its
/// place in the tree, never by the build host's path.
std::string_view source_path(std::string_view file) {
  const std::size_t at = file.rfind("/src/");
  return at == std::string_view::npos ? file : file.substr(at + 1);
}

std::string format(const char* kind, const char* expr, const char* file,
                   int line, const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << source_path(file) << ":"
     << line;
  if (!msg.empty()) os << " — " << msg;
  return os.str();
}
}  // namespace

void throw_precondition(const char* expr, const char* file, int line,
                        const std::string& msg) {
  throw PreconditionError(format("precondition", expr, file, line, msg));
}

void throw_internal(const char* expr, const char* file, int line,
                    const std::string& msg) {
  throw InternalError(format("invariant", expr, file, line, msg));
}

}  // namespace mhs::detail
