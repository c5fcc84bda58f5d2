#include "pisa/pipeline.hpp"

namespace netclone::pisa {

StageResource::StageResource(Pipeline& pipeline, std::string name,
                             std::size_t stage)
    : name_(std::move(name)), stage_(stage) {
  pipeline.register_resource(this);
}

void Pipeline::register_resource(StageResource* resource) {
  NETCLONE_CHECK(resource->stage() < stage_count_,
                 "resource '" + resource->name() +
                     "' bound beyond the last pipeline stage");
  NETCLONE_CHECK(resources_.size() < kMaxResources,
                 "pipeline resource budget exceeded registering '" +
                     resource->name() + "'");
  resource->index_ = resources_.size();
  resources_.push_back(resource);
}

void Pipeline::reset_soft_state() {
  for (StageResource* r : resources_) {
    if (r->is_soft_state()) {
      r->reset();
    }
  }
}

// Cold failure paths live out of line so the inline access fast path
// carries no string machinery.
void PipelinePass::fail_stage_order(const StageResource& resource) const {
  check_failed("resource.stage_ >= current_stage_",
               "stage-order violation: resource '" + resource.name_ +
                   "' in stage " + std::to_string(resource.stage_) +
                   " accessed after stage " +
                   std::to_string(current_stage_));
}

void PipelinePass::fail_double_access(const StageResource& resource) {
  check_failed("single access per stateful resource per pass",
               "double access to '" + resource.name_ +
                   "' in one pipeline pass (one ALU op per register per "
                   "packet — use a shadow copy)");
}

}  // namespace netclone::pisa
