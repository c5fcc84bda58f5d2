// Engine selection shared by every harness (Experiment, MultiRack).
//
// Exactly one event engine backs a run: the legacy single-queue
// sim::Simulator, or sim::ShardedSimulator when the config (or
// NETCLONE_SHARDS) asks for shards. EngineContext owns that choice plus
// the cross-shard link wiring, so every harness honors the same
// selection rules — and produces bit-identical digests for any choice.
//
// It also owns the experiment's frame pool. Nothing an experiment does
// allocates from the process-wide FramePool::instance(), so experiments
// on different threads never share a free list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "phys/topology.hpp"
#include "sim/scheduler.hpp"
#include "wire/framebuf.hpp"

namespace netclone::sim {
class Simulator;
class ShardedSimulator;
}  // namespace netclone::sim

namespace netclone::harness {

class EngineContext {
 public:
  /// `config_shards` == 0 resolves NETCLONE_SHARDS (unset -> legacy
  /// engine); any value >= 1 forces the sharded engine with that many
  /// queues.
  EngineContext(std::size_t config_shards, std::uint64_t seed);
  ~EngineContext();

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  [[nodiscard]] bool sharded() const { return sharded_ != nullptr; }
  /// Shards in use (0 = unsharded legacy engine).
  [[nodiscard]] std::size_t num_shards() const;
  /// Scheduler a node on `shard` runs on (the single engine when
  /// unsharded).
  [[nodiscard]] sim::Scheduler& shard_scheduler(std::size_t shard);
  /// Where faults and test-injected events go: the control barrier when
  /// sharded, the single queue otherwise.
  [[nodiscard]] sim::Scheduler& control();

  /// Runs the engine with the experiment's pool bound to this thread.
  void run_until(SimTime deadline);
  [[nodiscard]] std::uint64_t executed_events() const;
  [[nodiscard]] std::uint64_t absorbed_events() const;
  /// The experiment's own frame pool. Harnesses bind it (ScopedPoolBinding)
  /// while they build; run_until binds it itself. Sharded runs allocate
  /// from the shard pools instead, so there it serves only build time and
  /// control-barrier events.
  [[nodiscard]] wire::FramePool& pool() { return pool_; }
  /// Balance sheets: the experiment's pool when unsharded; one per shard
  /// pool followed by the experiment's pool when sharded.
  [[nodiscard]] std::vector<wire::FramePool::Stats> frame_pool_stats() const;

  /// topology.connect() plus, when the endpoints' shards differ, the
  /// cross-shard mailbox wiring for both directions. Link ids are
  /// topology build-order indices — identical for every shard count.
  phys::DuplexPorts connect(phys::Topology& topology, phys::Node& a,
                            std::size_t shard_a, phys::Node& b,
                            std::size_t shard_b,
                            phys::LinkParams params = {});

 private:
  // Declared first so it is destroyed last: every frame the engine's
  // events (and the harness's nodes, destroyed before this context) hold
  // releases into it.
  wire::FramePool pool_;
  // Exactly one engine is loaded.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::ShardedSimulator> sharded_;
};

/// Build-time validation of an explicit shard assignment: every entry
/// must name an existing shard and the list must cover all `num_entities`
/// (what = "cluster hosts", "racks", ... for the error text). Also warns
/// loudly when more than half of the entities serialize onto one shard —
/// a degenerate assignment that silently erases the parallelism the
/// caller asked for. No-op when `assignment` is empty (defaults apply)
/// or the engine is unsharded.
void validate_shard_assignment(const std::vector<std::uint32_t>& assignment,
                               std::size_t num_shards,
                               std::size_t num_entities,
                               const std::string& what);

}  // namespace netclone::harness
