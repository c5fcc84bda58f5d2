// §3.7 "Protocol support": Lamport-style request ids and TCP-mode
// retransmission. A retransmitted request must receive the SAME request id
// so the filter tables keep working, and lost packets (here: a switch
// outage) must be recovered by the client timeout.
#include <gtest/gtest.h>

#include "core/netclone_program.hpp"
#include "harness/experiment.hpp"
#include "kv/kv_workload.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "test_util.hpp"

namespace netclone {
namespace {

using core::NetCloneProgram;
using netclone::testing::make_request;
using netclone::testing::run_ingress;

TEST(ClientTupleMode, RetransmissionKeepsRequestId) {
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  cfg.id_mode = core::RequestIdMode::kClientTuple;
  NetCloneProgram program{pipeline, cfg};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
  program.install_groups(core::build_group_pairs(2));

  wire::Packet first = make_request(3, 42, 0, 0);
  wire::Packet retransmit = make_request(3, 42, 0, 0);
  (void)run_ingress(program, pipeline, first);
  (void)run_ingress(program, pipeline, retransmit);
  EXPECT_EQ(first.nc().req_id, retransmit.nc().req_id);

  // In sequence mode the ids would differ — the §3.7 misbehavior.
  pisa::Pipeline pipeline2;
  core::NetCloneConfig seq_cfg;
  NetCloneProgram seq_program{pipeline2, seq_cfg};
  seq_program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
  seq_program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
  seq_program.install_groups(core::build_group_pairs(2));
  wire::Packet a = make_request(3, 42, 0, 0);
  wire::Packet b = make_request(3, 42, 0, 0);
  (void)run_ingress(seq_program, pipeline2, a);
  (void)run_ingress(seq_program, pipeline2, b);
  EXPECT_NE(a.nc().req_id, b.nc().req_id);
}

TEST(ClientTupleMode, SequenceRegisterUntouched) {
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  cfg.id_mode = core::RequestIdMode::kClientTuple;
  NetCloneProgram program{pipeline, cfg};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
  program.install_groups(core::build_group_pairs(2));
  for (std::uint32_t i = 1; i <= 10; ++i) {
    wire::Packet pkt = make_request(0, i, 0, 0);
    (void)run_ingress(program, pipeline, pkt);
    EXPECT_NE(pkt.nc().req_id, 0U);
  }
}

harness::ClusterConfig retransmit_cluster() {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.server_workers = {8, 8, 8, 8};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.netclone.id_mode = core::RequestIdMode::kClientTuple;
  cfg.client_template.retransmit_timeout = SimTime::milliseconds(1);
  cfg.client_template.max_retransmits = 10;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(20);
  cfg.drain = SimTime::milliseconds(20);
  const double capacity =
      harness::cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  cfg.offered_rps = 0.2 * capacity;
  return cfg;
}

TEST(Retransmission, RecoversRequestsLostInSwitchOutage) {
  // Without retransmission, a 3 ms outage loses ~3 ms x offered requests
  // forever. With TCP-mode timeouts every request eventually completes.
  harness::Experiment experiment{retransmit_cluster()};
  experiment.simulator().schedule_at(SimTime::milliseconds(5),
                                     [&] { experiment.tor().fail(); });
  experiment.simulator().schedule_at(SimTime::milliseconds(8),
                                     [&] { experiment.tor().recover(); });
  (void)experiment.run();

  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t retransmissions = 0;
  for (const host::Client* client : experiment.clients()) {
    sent += client->stats().requests_sent;
    completed += client->stats().completed;
    retransmissions += client->stats().retransmissions;
  }
  EXPECT_GT(retransmissions, 50U);  // the outage forced re-sends
  EXPECT_EQ(completed, sent);       // nothing lost permanently
}

TEST(Retransmission, NoOutageMeansNoRetransmissions) {
  harness::ClusterConfig cfg = retransmit_cluster();
  cfg.client_template.retransmit_timeout = SimTime::milliseconds(5);
  harness::Experiment experiment{cfg};
  (void)experiment.run();
  std::uint64_t retransmissions = 0;
  for (const host::Client* client : experiment.clients()) {
    retransmissions += client->stats().retransmissions;
  }
  EXPECT_EQ(retransmissions, 0U);  // all latencies are well under 5 ms
}

TEST(WriteRequests, NeverClonedEndToEnd) {
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  NetCloneProgram program{pipeline, cfg};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
  program.install_groups(core::build_group_pairs(2));

  // Both servers idle: a read would clone, a write must not.
  wire::Packet write = make_request(0, 1, 0, 0);
  write.nc().type = wire::MsgType::kWriteRequest;
  const auto md = run_ingress(program, pipeline, write);
  EXPECT_FALSE(md.drop);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(md.egress_port, 10U);
  EXPECT_EQ(program.stats().write_requests, 1U);
  EXPECT_EQ(program.stats().cloned_requests, 0U);

  wire::Packet read = make_request(0, 2, 0, 0);
  const auto md2 = run_ingress(program, pipeline, read);
  EXPECT_TRUE(md2.multicast_group.has_value());
}

TEST(WriteRequests, KvMixWithWritesEndToEnd) {
  auto store = std::make_shared<kv::KvStore>(10000);
  kv::populate(*store, 10000);
  kv::KvMix mix;
  mix.get_fraction = 0.85;
  mix.set_fraction = 0.10;  // the rest are SCANs
  mix.num_keys = 10000;
  const kv::KvCostProfile profile = kv::redis_profile();
  auto factory = std::make_shared<kv::KvRequestFactory>(mix, profile);

  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.server_workers = {8, 8, 8, 8};
  cfg.factory = factory;
  cfg.service = std::make_shared<kv::KvService>(store, profile,
                                                host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(10);
  cfg.offered_rps = 0.3 * harness::cluster_capacity_rps(
                              cfg.server_workers,
                              factory->mean_intrinsic_us() * 1.14);
  harness::Experiment experiment{cfg};
  const harness::ExperimentResult result = experiment.run();

  const auto& ps = experiment.netclone_program()->stats();
  EXPECT_GT(ps.write_requests, 0U);
  EXPECT_GT(ps.cloned_requests, 0U);  // reads still clone
  // Writes + reads are mutually exclusive counters.
  EXPECT_EQ(ps.requests + ps.write_requests, result.requests_sent);

  std::uint64_t completed = 0;
  for (const host::Client* client : experiment.clients()) {
    completed += client->stats().completed;
  }
  EXPECT_EQ(completed, result.requests_sent);  // writes complete too
}

}  // namespace
}  // namespace netclone
