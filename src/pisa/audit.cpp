#include "pisa/audit.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "pisa/resources.hpp"

namespace netclone::pisa {

AuditReport audit(const Pipeline& pipeline) {
  AuditReport report;
  report.stages_available = pipeline.stage_count();
  std::size_t max_stage = 0;
  bool any = false;
  for (const StageResource* r : pipeline.resources()) {
    report.resources.push_back(ResourceUsage{r->name(), r->stage(),
                                             r->sram_bytes(),
                                             r->is_soft_state()});
    report.sram_bytes_total += r->sram_bytes();
    max_stage = std::max(max_stage, r->stage());
    any = true;
  }
  report.stages_used = any ? max_stage + 1 : 0;
  report.sram_fraction = static_cast<double>(report.sram_bytes_total) /
                         static_cast<double>(kAsicSramBytes);
  std::sort(report.resources.begin(), report.resources.end(),
            [](const ResourceUsage& a, const ResourceUsage& b) {
              return a.stage != b.stage ? a.stage < b.stage
                                        : a.name < b.name;
            });
  return report;
}

std::string AuditReport::to_string() const {
  std::ostringstream os;
  char line[160];
  os << "  stage  resource                    SRAM (bytes)  state\n";
  for (const ResourceUsage& r : resources) {
    std::snprintf(line, sizeof(line), "  %5zu  %-26s  %12zu  %s\n", r.stage,
                  r.name.c_str(), r.sram_bytes,
                  r.soft_state ? "soft (register)" : "control-plane");
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "  match-action stages used: %zu of %zu\n", stages_used,
                stages_available);
  os << line;
  std::snprintf(line, sizeof(line),
                "  SRAM total: %.2f MB (%.2f%% of the %zu MB ASIC budget)\n",
                static_cast<double>(sram_bytes_total) / (1024.0 * 1024.0),
                sram_fraction * 100.0, kAsicSramBytes / (1024 * 1024));
  os << line;
  return os.str();
}

}  // namespace netclone::pisa
