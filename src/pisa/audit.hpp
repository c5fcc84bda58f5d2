// Resource auditor: the §4.1 implementation report, computed from the
// actual resources a program registered against the pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pisa/pipeline.hpp"

namespace netclone::pisa {

/// Total data-plane SRAM of the modeled ASIC. The paper reports its two
/// 2^17-slot 32-bit filter tables (1.05 MB) as 4.77% of switch memory,
/// which implies a 22 MB SRAM budget; we adopt that figure.
inline constexpr std::size_t kAsicSramBytes = 22 * 1024 * 1024;

struct ResourceUsage {
  std::string name;
  std::size_t stage = 0;
  std::size_t sram_bytes = 0;
  bool soft_state = false;
};

struct AuditReport {
  std::vector<ResourceUsage> resources;
  std::size_t stages_used = 0;      // highest occupied stage + 1
  std::size_t stages_available = 0;
  std::size_t sram_bytes_total = 0;
  double sram_fraction = 0.0;       // of kAsicSramBytes

  /// Formats a human-readable table mirroring the paper's §4.1 numbers.
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] AuditReport audit(const Pipeline& pipeline);

}  // namespace netclone::pisa
