#include "harness/multirack.hpp"

#include <gtest/gtest.h>

#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

MultiRackConfig small_config() {
  MultiRackConfig cfg;
  cfg.server_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.workers = 4;
  cfg.num_clients = 1;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(6);
  cfg.offered_rps = 0.3 * cluster_capacity_rps({4, 4, 4, 4}, 25.0 * 1.14);
  return cfg;
}

TEST(MultiRackHarness, EndToEndConservation) {
  MultiRackExperiment experiment{small_config()};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.requests_sent, 200U);
  std::uint64_t completed = 0;
  for (const host::Client* client : experiment.clients()) {
    completed += client->stats().completed;
  }
  EXPECT_EQ(completed, result.requests_sent);
  EXPECT_EQ(result.redundant_responses, 0U);
}

TEST(MultiRackHarness, CloningOnlyAtClientTor) {
  MultiRackExperiment experiment{small_config()};
  (void)experiment.run();
  EXPECT_GT(experiment.client_tor_program().stats().cloned_requests, 0U);
  for (std::size_t rack = 0; rack < 2; ++rack) {
    const auto& stats = experiment.server_tor_program(rack).stats();
    EXPECT_EQ(stats.cloned_requests, 0U) << rack;
    EXPECT_EQ(stats.requests, 0U) << rack;
    EXPECT_GT(stats.foreign_packets, 0U) << rack;
  }
}

TEST(MultiRackHarness, CloningSpansRacks) {
  // Candidate pairs mix sids from both racks (sids 0-1 rack 0, 2-3 rack
  // 1); all four servers must see executed clones at low load.
  MultiRackConfig cfg = small_config();
  cfg.offered_rps = 30000.0;  // very low: near-100% cloning
  MultiRackExperiment experiment{cfg};
  (void)experiment.run();
  for (const host::Server* server : experiment.servers()) {
    EXPECT_GT(server->stats().completed, 0U)
        << value_of(server->sid());
  }
  EXPECT_GT(experiment.agg_program().stats().routed, 0U);
  EXPECT_EQ(experiment.agg_program().stats().no_route_drops, 0U);
}

TEST(MultiRackHarness, RejectsDegenerateConfigs) {
  MultiRackConfig cfg = small_config();
  cfg.server_racks = 1;
  cfg.servers_per_rack = 1;
  EXPECT_THROW(MultiRackExperiment{cfg}, CheckFailure);
  cfg = small_config();
  cfg.factory = nullptr;
  EXPECT_THROW(MultiRackExperiment{cfg}, CheckFailure);
}

}  // namespace
}  // namespace netclone::harness
