#include "harness/engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace netclone::harness {

EngineContext::EngineContext(std::size_t config_shards, std::uint64_t seed) {
  std::size_t shards = config_shards;
  if (shards == 0) {
    shards = sim::shards_from_env();
  }
  if (shards > 0) {
    sharded_ = std::make_unique<sim::ShardedSimulator>(shards, seed);
  } else {
    sim_ = std::make_unique<sim::Simulator>();
  }
}

EngineContext::~EngineContext() = default;

std::size_t EngineContext::num_shards() const {
  return sharded_ != nullptr ? sharded_->num_shards() : 0;
}

sim::Scheduler& EngineContext::shard_scheduler(std::size_t shard) {
  return sharded_ != nullptr
             ? static_cast<sim::Scheduler&>(sharded_->shard(shard))
             : static_cast<sim::Scheduler&>(*sim_);
}

sim::Scheduler& EngineContext::control() {
  return sharded_ != nullptr ? sharded_->control()
                             : static_cast<sim::Scheduler&>(*sim_);
}

void EngineContext::run_until(SimTime deadline) {
  const wire::ScopedPoolBinding bind(pool_);
  if (sharded_ != nullptr) {
    sharded_->run_until(deadline);
  } else {
    sim_->run_until(deadline);
  }
}

std::uint64_t EngineContext::executed_events() const {
  return sharded_ != nullptr ? sharded_->executed_events()
                             : sim_->executed_events();
}

std::uint64_t EngineContext::absorbed_events() const {
  return sharded_ != nullptr ? sharded_->absorbed_events()
                             : sim_->absorbed_events();
}

std::vector<wire::FramePool::Stats> EngineContext::frame_pool_stats() const {
  std::vector<wire::FramePool::Stats> out;
  if (sharded_ != nullptr) {
    for (std::size_t i = 0; i < sharded_->num_shards(); ++i) {
      out.push_back(sharded_->shard(i).pool().stats());
    }
  }
  out.push_back(pool_.stats());
  return out;
}

phys::DuplexPorts EngineContext::connect(phys::Topology& topology,
                                         phys::Node& a, std::size_t shard_a,
                                         phys::Node& b, std::size_t shard_b,
                                         phys::LinkParams params) {
  if (sharded_ == nullptr) {
    return topology.connect(a, b, params);
  }
  // Link ids are topology build-order indices: identical for every shard
  // count, which makes them a safe deep-tie fallback in the merge order.
  const auto id_ab = static_cast<std::uint32_t>(topology.links().size());
  phys::DuplexPorts ports = topology.connect(
      sharded_->shard(shard_a), sharded_->shard(shard_b), a, b, params);
  if (shard_a == shard_b) {
    return ports;
  }
  sim::RemoteSink& ab = sharded_->attach_remote(
      shard_a, shard_b, id_ab, params.delay,
      [&b, port = ports.port_on_b](wire::FrameHandle frame) {
        b.handle_frame(port, std::move(frame));
      });
  ports.a_to_b->set_remote_sink(&ab);
  sim::RemoteSink& ba = sharded_->attach_remote(
      shard_b, shard_a, id_ab + 1, params.delay,
      [&a, port = ports.port_on_a](wire::FrameHandle frame) {
        a.handle_frame(port, std::move(frame));
      });
  ports.b_to_a->set_remote_sink(&ba);
  return ports;
}

void validate_shard_assignment(const std::vector<std::uint32_t>& assignment,
                               std::size_t num_shards,
                               std::size_t num_entities,
                               const std::string& what) {
  if (assignment.empty() || num_shards == 0) {
    return;
  }
  NETCLONE_CHECK(assignment.size() >= num_entities,
                 what + ": shard assignment lists " +
                     std::to_string(assignment.size()) + " entries for " +
                     std::to_string(num_entities) + " entities");
  std::vector<std::size_t> per_shard(num_shards, 0);
  for (std::size_t i = 0; i < num_entities; ++i) {
    NETCLONE_CHECK(assignment[i] < num_shards,
                   what + ": shard assignment entry " + std::to_string(i) +
                       " names shard " + std::to_string(assignment[i]) +
                       " but only " + std::to_string(num_shards) +
                       " shards exist");
    ++per_shard[assignment[i]];
  }
  if (num_shards < 2 || num_entities < 2) {
    return;
  }
  const auto hottest =
      std::max_element(per_shard.begin(), per_shard.end());
  if (*hottest * 2 > num_entities) {
    log_warn(what + ": shard assignment serializes " +
             std::to_string(*hottest) + "/" + std::to_string(num_entities) +
             " entities onto shard " +
             std::to_string(hottest - per_shard.begin()) +
             " — most events will run on one queue");
  }
}

}  // namespace netclone::harness
