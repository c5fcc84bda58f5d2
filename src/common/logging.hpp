// Warnings to stderr. Simulation components do not log: hot paths must
// stay log-free, and what a run did is in its stats.
#pragma once

#include <string>

namespace netclone {

/// Writes one line to stderr as "[WARN] message".
void log_warn(const std::string& message);

}  // namespace netclone
