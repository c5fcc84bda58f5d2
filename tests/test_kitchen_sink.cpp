// The kitchen sink: every optional feature enabled at once, plus a switch
// flap in the middle. This is an interaction test — each feature passes
// its own suite; here we check they compose:
//   * KV workload with GETs, SCANs, and WRITES (WREQ, never cloned)
//   * 2-fragment multi-packet requests (client-tuple ids, ClonedReqT)
//   * TCP-mode retransmission recovering the flap's losses
//   * bursty (MMPP) arrivals
//   * 4 ordered filter tables
#include <gtest/gtest.h>

#include "baselines/netclone_racksched.hpp"
#include "harness/experiment.hpp"
#include "kv/kv_workload.hpp"

namespace netclone::harness {
namespace {

TEST(KitchenSink, AllFeaturesCompose) {
  auto store = std::make_shared<kv::KvStore>(20000);
  kv::populate(*store, 20000);
  kv::KvMix mix;
  mix.get_fraction = 0.80;
  mix.set_fraction = 0.10;
  mix.num_keys = 20000;
  const kv::KvCostProfile profile = kv::redis_profile();
  auto factory = std::make_shared<kv::KvRequestFactory>(mix, profile);

  ClusterConfig cfg;
  cfg.scheme = Scheme::kNetClone;
  cfg.server_workers = {8, 8, 8, 8};
  cfg.factory = factory;
  cfg.service = std::make_shared<kv::KvService>(
      store, profile, host::JitterModel{0.01, 15.0, 0.08});
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(30);
  cfg.drain = SimTime::milliseconds(30);
  cfg.netclone.id_mode = core::RequestIdMode::kClientTuple;
  cfg.netclone.enable_multipacket = true;
  cfg.netclone.num_filter_tables = 4;
  cfg.client_template.request_fragments = 2;
  cfg.client_template.arrival = host::ArrivalProcess::kBursty;
  cfg.client_template.retransmit_timeout = SimTime::milliseconds(2);
  cfg.client_template.max_retransmits = 8;
  cfg.server_template.response_fragments = 2;
  cfg.offered_rps = 0.25 * cluster_capacity_rps(
                               cfg.server_workers,
                               factory->mean_intrinsic_us() * 1.14);

  Experiment experiment{cfg};
  experiment.simulator().schedule_at(SimTime::milliseconds(10),
                                     [&] { experiment.tor().fail(); });
  experiment.simulator().schedule_at(SimTime::milliseconds(13),
                                     [&] { experiment.tor().recover(); });
  const ExperimentResult result = experiment.run();

  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t redundant = 0;
  for (const host::Client* client : experiment.clients()) {
    sent += client->stats().requests_sent;
    completed += client->stats().completed;
    retransmissions += client->stats().retransmissions;
    redundant += client->stats().redundant_responses;
  }

  // Retransmission recovered the outage: everything completes.
  EXPECT_GT(retransmissions, 10U);
  EXPECT_EQ(completed, sent);

  const auto& ps = experiment.netclone_program()->stats();
  EXPECT_GT(ps.write_requests, 0U);            // writes flowed (uncloned)
  EXPECT_GT(ps.cloned_requests, 0U);           // reads cloned
  EXPECT_GT(ps.continuation_fragments, 0U);    // multipacket active
  EXPECT_GT(ps.cloned_fragments, 0U);          // follow-ups cloned too
  EXPECT_GT(ps.filtered_responses, 0U);        // ordered filters working

  std::uint64_t reassembled = 0;
  for (const host::Server* server : experiment.servers()) {
    reassembled += server->stats().reassembled_requests;
  }
  EXPECT_GT(reassembled, 0U);

  // Redundancy reaching clients stays at collision/retransmit level.
  EXPECT_LT(static_cast<double>(redundant), 0.1 * static_cast<double>(sent));
  EXPECT_GT(result.p99.ns(), 0);
}

TEST(KitchenSink, IntegrationRejectsMultipacket) {
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  cfg.id_mode = core::RequestIdMode::kClientTuple;
  cfg.enable_multipacket = true;
  EXPECT_THROW((void)baselines::NetCloneRackSchedProgram(pipeline, cfg),
               CheckFailure);
}

}  // namespace
}  // namespace netclone::harness
