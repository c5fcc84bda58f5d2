// PISA pipeline model — the architectural skeleton of a Tofino-class ASIC.
//
// The constraints this model enforces are the ones that drive NetClone's
// design (paper §2.3, §3.4):
//
//   1. Every table / register array is statically bound to ONE match-action
//      stage at build time ("compile time" on hardware).
//   2. A packet traverses stages strictly in order: once a pass has touched
//      stage k, it can never access a resource in a stage < k.
//   3. A stateful resource can be accessed AT MOST ONCE per pass (there is
//      one ALU path per register per packet). Reading the server state
//      table for two different servers is therefore impossible — exactly
//      why the paper introduces the shadow table.
//
// Every build enforces them: each access is validated, and a violation
// throws CheckFailure — a program that violates them would simply not
// compile for the ASIC. So the benchmark, the figure benches and every
// test run under the rules that force the paper's shadow table and
// recirculation. Construction-time checks (stage bounds, resource
// budget) and memory safety checks (register index bounds) are on too.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace netclone::pisa {

class PipelinePass;
class StageResource;

/// Tofino has 12 ingress match-action stages per pipeline.
inline constexpr std::size_t kStageCount = 12;

/// Upper bound on resources registered against one pipeline. Keeps the
/// per-pass access bitset in a few inline words (kMaxResources / 64).
inline constexpr std::size_t kMaxResources = 256;

/// One Tofino ingress pipeline: kStageCount stages.
class Pipeline {
 public:
  Pipeline() = default;

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Called by StageResource's constructor; assigns the resource its
  /// dense per-pipeline index (the bit it owns in the per-pass bitset).
  void register_resource(StageResource* resource);

  [[nodiscard]] const std::vector<StageResource*>& resources() const {
    return resources_;
  }

  /// Clears all stateful (register) resources — what a switch reboot does
  /// to soft state (§3.6 "Switch failures"). Match-action table entries are
  /// control-plane state and survive (the controller re-installs them).
  void reset_soft_state();

 private:
  std::vector<StageResource*> resources_;
};

/// Base class for data-plane resources: binds a named resource to a
/// pipeline stage and to a dense index used by the per-pass access bitset.
class StageResource {
 public:
  StageResource(Pipeline& pipeline, std::string name, std::size_t stage);
  virtual ~StageResource() = default;

  StageResource(const StageResource&) = delete;
  StageResource& operator=(const StageResource&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t stage() const { return stage_; }
  /// Dense registration index within the owning pipeline.
  [[nodiscard]] std::size_t index() const { return index_; }

  /// SRAM footprint in bytes, for the resource auditor (§4.1).
  [[nodiscard]] virtual std::size_t sram_bytes() const = 0;

  /// Whether this is soft state wiped by a switch failure.
  [[nodiscard]] virtual bool is_soft_state() const = 0;

  /// Clears soft state (no-op for control-plane tables).
  virtual void reset() = 0;

 protected:
  /// Every stateful data-plane entry point must call this first.
  inline void record_access(PipelinePass& pass);
  /// Stage-order-only variant for stateless units (the hash unit).
  inline void record_access_stateless(PipelinePass& pass);

 private:
  friend class Pipeline;
  friend class PipelinePass;

  std::string name_;
  std::size_t stage_;
  std::size_t index_ = 0;
};

/// One packet's traversal of the pipeline. Create one per packet, pass it
/// to every data-plane resource access.
class PipelinePass {
 public:
  /// A pass over `pipeline`: its access bitset is indexed by the dense
  /// indices that pipeline's resources registered under.
  explicit PipelinePass(const Pipeline& /*pipeline*/) {}

  /// Validates and records an access to `resource` in its bound stage:
  /// throws CheckFailure if the access goes backwards or repeats.
  inline void access(StageResource& resource);

  /// Stage-order check only, for stateless units (the hash unit) that may
  /// produce several values for one packet within their stage.
  inline void access_stateless(StageResource& resource);

  [[nodiscard]] std::size_t current_stage() const { return current_stage_; }

 private:
  [[noreturn]] void fail_stage_order(const StageResource& resource) const;
  [[noreturn]] static void fail_double_access(const StageResource& resource);

  std::size_t current_stage_ = 0;
  std::array<std::uint64_t, kMaxResources / 64> accessed_{};
};

inline void PipelinePass::access(StageResource& resource) {
  if (resource.stage_ < current_stage_) {
    fail_stage_order(resource);
  }
  std::uint64_t& word = accessed_[resource.index_ >> 6U];
  const std::uint64_t bit = std::uint64_t{1} << (resource.index_ & 63U);
  if ((word & bit) != 0) {
    fail_double_access(resource);
  }
  word |= bit;
  current_stage_ = resource.stage_;
}

inline void PipelinePass::access_stateless(StageResource& resource) {
  if (resource.stage_ < current_stage_) {
    fail_stage_order(resource);
  }
  current_stage_ = resource.stage_;
}

inline void StageResource::record_access(PipelinePass& pass) {
  pass.access(*this);
}

inline void StageResource::record_access_stateless(PipelinePass& pass) {
  pass.access_stateless(*this);
}

}  // namespace netclone::pisa
