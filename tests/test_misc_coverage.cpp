// Odds and ends: branches not reached by the focused suites.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "baselines/laedge.hpp"
#include "baselines/racksched_program.hpp"
#include "common/histogram.hpp"
#include "common/logging.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "host/client.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "test_util.hpp"

namespace netclone {
namespace {

using netclone::testing::CaptureNode;
using netclone::testing::make_request;
using netclone::testing::make_response;
using netclone::testing::run_ingress;

TEST(Histogram, HugeValuesStayOrdered) {
  LatencyHistogram h;
  h.record(SimTime::seconds(100.0));   // ~1e11 ns
  h.record(SimTime::seconds(1000.0));  // ~1e12 ns
  h.record(SimTime::nanoseconds(5));
  EXPECT_EQ(h.percentile(0.0).ns(), 5);
  EXPECT_LE(h.percentile(1.0), h.max());
  EXPECT_GE(static_cast<double>(h.percentile(1.0).ns()), 0.98e12);
}

TEST(Logging, LevelFilterWorks) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  log_debug("suppressed");
  log_info("suppressed");
  log_warn("suppressed");
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(old);
}

TEST(Laedge, HeterogeneousCapacitiesRespectSlots) {
  // One big worker (3 slots) and one tiny (1 slot): with 4 concurrent
  // requests the coordinator must track per-worker capacity, not count
  // servers.
  sim::Simulator sim;
  phys::Topology topo{sim};
  baselines::LaedgeParams lp;
  lp.per_packet_cost = SimTime::nanoseconds(100);
  lp.workers = {
      baselines::LaedgeWorkerInfo{ServerId{0}, host::server_ip(ServerId{0}),
                                  3},
      baselines::LaedgeWorkerInfo{ServerId{1}, host::server_ip(ServerId{1}),
                                  1},
  };
  auto& coord =
      topo.add_node<baselines::LaedgeCoordinator>(sim, lp, Rng{2});
  auto& wire_end = topo.add_node<CaptureNode>("wire");
  topo.connect(coord, wire_end);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    wire_end.transmit(0, make_request(0, i, 0, 0).serialize());
  }
  sim.run();
  // Total slots = 4: req1 cloned (2 slots), req2 cloned or single...
  // regardless of the exact split, dispatched copies never exceed slots.
  std::size_t to_srv0 = 0;
  std::size_t to_srv1 = 0;
  for (const auto& pkt : wire_end.packets()) {
    if (pkt.ip.dst == host::server_ip(ServerId{0})) {
      ++to_srv0;
    } else if (pkt.ip.dst == host::server_ip(ServerId{1})) {
      ++to_srv1;
    }
  }
  EXPECT_LE(to_srv0, 3U);
  EXPECT_LE(to_srv1, 1U);
  // All four slots are in use and nothing else was dispatched.
  EXPECT_EQ(to_srv0 + to_srv1, 4U);
}

TEST(RackSchedProgram, NoServersDropsRequests) {
  pisa::Pipeline pipeline;
  baselines::RackSchedProgram program{pipeline, 4, 1};
  wire::Packet pkt = make_request(0, 1, 0, 0);
  EXPECT_TRUE(run_ingress(program, pipeline, pkt).drop);
}

TEST(RackSchedProgram, CancelPacketsRoutedNotScheduled) {
  pisa::Pipeline pipeline;
  baselines::RackSchedProgram program{pipeline, 4, 1};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11);
  wire::Packet cancel = make_request(0, 1, 0, 0);
  cancel.nc().type = wire::MsgType::kCancel;
  cancel.ip.dst = host::server_ip(ServerId{1});
  const auto md = run_ingress(program, pipeline, cancel);
  EXPECT_EQ(md.egress_port, 11U);  // routed to its addressed server
  EXPECT_EQ(program.stats().requests, 0U);
}

TEST(Client, CancelCombinesWithClosedLoop) {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kCClone;
  cfg.server_workers = {4, 4, 4};
  cfg.factory = std::make_shared<host::FixedWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.num_clients = 1;
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(8);
  cfg.client_template.loop = host::LoopMode::kClosedLoop;
  cfg.client_template.closed_loop_window = 8;
  cfg.client_template.cclone_cancel = true;
  cfg.offered_rps = 1.0;  // unused in closed loop
  harness::Experiment experiment{cfg};
  (void)experiment.run();
  const host::ClientStats& cs = experiment.clients()[0]->stats();
  EXPECT_GT(cs.completed, 100U);
  EXPECT_EQ(cs.cancels_sent, cs.completed);
  EXPECT_EQ(cs.completed, cs.requests_sent);
}

TEST(Workloads, ScenarioBimodalKeysApply) {
  const harness::Scenario s = harness::parse_scenario(
      "workload = bimodal\nbimodal_short_us = 10\nbimodal_long_us = 100\n"
      "bimodal_short_fraction = 0.8\n");
  const harness::ClusterConfig cfg = s.build_config();
  EXPECT_DOUBLE_EQ(cfg.factory->mean_intrinsic_us(),
                   0.8 * 10.0 + 0.2 * 100.0);
}

TEST(Client, BurstyWithViaSwitchConserves) {
  // Bursty + closed features off, NetClone path: already covered; here
  // direct-random (no switch steering) with bursts.
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kBaseline;
  cfg.server_workers = {4, 4};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.0, 1.0});
  cfg.client_template.arrival = host::ArrivalProcess::kBursty;
  cfg.client_template.burst_on_fraction = 0.5;
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(8);
  cfg.offered_rps = 0.2 * harness::cluster_capacity_rps({4, 4}, 25.0);
  harness::Experiment experiment{cfg};
  const auto result = experiment.run();
  std::uint64_t completed = 0;
  for (const host::Client* client : experiment.clients()) {
    completed += client->stats().completed;
  }
  EXPECT_EQ(completed, result.requests_sent);
}

}  // namespace
}  // namespace netclone
