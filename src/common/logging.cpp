#include "common/logging.hpp"

#include <cstdio>

namespace netclone {

void log_warn(const std::string& message) {
  std::fprintf(stderr, "[WARN] %s\n", message.c_str());
}

}  // namespace netclone
