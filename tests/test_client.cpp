#include "sim/simulator.hpp"
#include "host/client.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "harness/experiment.hpp"
#include "host/service.hpp"
#include "phys/topology.hpp"
#include "test_util.hpp"

namespace netclone::host {
namespace {

using namespace netclone::literals;
using netclone::testing::CaptureNode;

ClientParams base_params(SendMode mode, double rate_rps = 100000.0) {
  ClientParams p;
  p.client_id = 0;
  p.mode = mode;
  p.rate_rps = rate_rps;
  p.num_groups = 30;
  p.num_filter_tables = 2;
  p.target = service_vip();
  for (std::uint8_t i = 0; i < 6; ++i) {
    p.server_ips.push_back(server_ip(ServerId{i}));
  }
  p.stop_at = SimTime::milliseconds(2);
  return p;
}

struct Rig {
  sim::Simulator sim;
  phys::Topology topo{sim};
  Client* client = nullptr;
  CaptureNode* wire_end = nullptr;

  explicit Rig(const ClientParams& params) {
    client = &topo.add_node<Client>(
        sim, params, std::make_shared<FixedWorkload>(25.0), Rng{7});
    wire_end = &topo.add_node<CaptureNode>("wire");
    topo.connect(*client, *wire_end);
  }
};

TEST(Client, ViaSwitchSendsOnePacketPerRequest) {
  Rig rig{base_params(SendMode::kViaSwitch)};
  rig.client->start();
  rig.sim.run();
  const auto& stats = rig.client->stats();
  EXPECT_GT(stats.requests_sent, 100U);
  EXPECT_EQ(stats.packets_sent, stats.requests_sent);
  for (const auto& pkt : rig.wire_end->packets()) {
    EXPECT_EQ(pkt.ip.dst, service_vip());
    EXPECT_EQ(pkt.nc().clo, wire::CloneStatus::kNotCloned);
    EXPECT_EQ(pkt.nc().req_id, 0U);  // assigned by the switch, not us
    EXPECT_LT(pkt.nc().grp, 30);
    EXPECT_LT(pkt.nc().idx, 2);
  }
}

TEST(Client, OpenLoopRateIsApproximatelyHonoured) {
  Rig rig{base_params(SendMode::kViaSwitch, 500000.0)};
  rig.client->start();
  rig.sim.run();
  // 500 KRPS for 2 ms ~ 1000 requests.
  EXPECT_NEAR(static_cast<double>(rig.client->stats().requests_sent),
              1000.0, 150.0);
}

TEST(Client, DirectRandomSpreadsOverServers) {
  Rig rig{base_params(SendMode::kDirectRandom)};
  rig.client->start();
  rig.sim.run();
  std::set<std::uint32_t> dsts;
  for (const auto& pkt : rig.wire_end->packets()) {
    dsts.insert(pkt.ip.dst.value);
  }
  EXPECT_EQ(dsts.size(), 6U);  // all six workers hit
}

TEST(Client, CCloneSendsTwoPacketsToDistinctServers) {
  Rig rig{base_params(SendMode::kCClone)};
  rig.client->start();
  rig.sim.run();
  const auto& stats = rig.client->stats();
  EXPECT_EQ(stats.packets_sent, 2 * stats.requests_sent);
  const auto pkts = rig.wire_end->packets();
  ASSERT_GE(pkts.size(), 2U);
  for (std::size_t i = 0; i + 1 < pkts.size(); i += 2) {
    EXPECT_EQ(pkts[i].nc().client_seq, pkts[i + 1].nc().client_seq);
    EXPECT_NE(pkts[i].ip.dst, pkts[i + 1].ip.dst);  // distinct servers
  }
}

TEST(Client, RecordsLatencyOnFirstResponseOnly) {
  ClientParams p = base_params(SendMode::kViaSwitch, 100000.0);
  p.stop_at = SimTime::microseconds(100);  // a handful of requests
  Rig rig{p};
  rig.client->start();
  rig.sim.run();
  ASSERT_GE(rig.client->stats().requests_sent, 1U);
  const auto pkts = rig.wire_end->packets();
  ASSERT_GE(pkts.size(), 1U);

  // Reflect the first request twice (duplicate responses).
  wire::Packet resp =
      netclone::testing::make_response(ServerId{2}, 0, pkts[0]);
  resp.nc().clo = wire::CloneStatus::kClonedOriginal;
  rig.wire_end->transmit(0, resp.serialize());
  rig.wire_end->transmit(0, resp.serialize());
  rig.sim.run();

  const auto& stats = rig.client->stats();
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.redundant_responses, 1U);
  EXPECT_EQ(stats.latency.count(), 1U);
  EXPECT_GT(stats.latency.max().ns(), 0);
}

TEST(Client, UnmatchedResponsesAreCounted) {
  Rig rig{base_params(SendMode::kViaSwitch, 1000.0)};
  rig.client->start();
  wire::Packet bogus = netclone::testing::make_response(
      ServerId{0}, 0, netclone::testing::make_request(0, 999999, 0, 0));
  rig.wire_end->transmit(0, bogus.serialize());
  rig.sim.run();
  EXPECT_EQ(rig.client->stats().unmatched_responses, 1U);
  EXPECT_EQ(rig.client->stats().completed, 0U);
}

TEST(Client, CompletedEntriesAreErasedButLateDuplicatesStayRedundant) {
  ClientParams p = base_params(SendMode::kViaSwitch, 100000.0);
  p.stop_at = SimTime::microseconds(100);  // a handful of requests
  Rig rig{p};
  rig.client->start();
  rig.sim.run();
  const auto pkts = rig.wire_end->packets();
  ASSERT_GE(pkts.size(), 2U);
  const std::uint64_t sent = rig.client->stats().requests_sent;
  EXPECT_EQ(rig.client->outstanding(), sent);

  // The original's response completes the request and frees its entry.
  wire::Packet resp =
      netclone::testing::make_response(ServerId{1}, 0, pkts[0]);
  rig.wire_end->transmit(0, resp.serialize());
  rig.sim.run();
  EXPECT_EQ(rig.client->stats().completed, 1U);
  EXPECT_EQ(rig.client->outstanding(), sent - 1);

  // The clone's response, arriving long after, is still a redundant
  // duplicate, not a stranger.
  resp.nc().clo = wire::CloneStatus::kClonedCopy;
  resp.nc().sid = 2;
  rig.wire_end->transmit(0, resp.serialize());
  // A seq this client never issued (0 is never used; 999999 is far past
  // the last one) matches nothing.
  for (const std::uint32_t seq : {0U, 999999U}) {
    rig.wire_end->transmit(
        0, netclone::testing::make_response(
               ServerId{0}, 0, netclone::testing::make_request(0, seq, 0, 0))
               .serialize());
  }
  rig.sim.run();
  const auto& stats = rig.client->stats();
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.redundant_responses, 1U);
  EXPECT_EQ(stats.unmatched_responses, 2U);
  EXPECT_EQ(rig.client->outstanding(), sent - 1);
}

TEST(Client, AuditCountsCompletedBitsAndTheOutstandingTable) {
  Rig rig{base_params(SendMode::kViaSwitch, 200000.0)};
  rig.client->start();
  rig.sim.run();
  // Answer every other request; the rest stay incomplete after the drain.
  const auto pkts = rig.wire_end->packets();
  for (std::size_t i = 0; i < pkts.size(); i += 2) {
    rig.wire_end->transmit(
        0, netclone::testing::make_response(ServerId{0}, 0, pkts[i])
               .serialize());
  }
  rig.sim.run();
  const auto& stats = rig.client->stats();
  const Client::Audit audit = rig.client->audit();
  EXPECT_EQ(stats.completed, (pkts.size() + 1) / 2);
  EXPECT_EQ(audit.completed_entries, stats.completed);
  EXPECT_EQ(audit.incomplete_entries, rig.client->outstanding());
  EXPECT_EQ(rig.client->outstanding(), stats.requests_sent - stats.completed);
  EXPECT_EQ(audit.completed_entries + audit.incomplete_entries,
            stats.requests_sent);
}

TEST(Client, WarmupSamplesExcludedFromHistogram) {
  ClientParams p = base_params(SendMode::kViaSwitch, 100000.0);
  p.warmup_until = SimTime::milliseconds(1);
  Rig rig{p};
  rig.client->start();
  rig.sim.run();
  // Echo every request back.
  for (const auto& pkt : rig.wire_end->packets()) {
    rig.wire_end->transmit(
        0, netclone::testing::make_response(ServerId{0}, 0, pkt)
               .serialize());
  }
  rig.sim.run();
  const auto& stats = rig.client->stats();
  EXPECT_GT(stats.completed, 0U);
  // Roughly half the requests were sent before the warmup cutoff.
  EXPECT_LT(stats.latency.count(), stats.completed);
  EXPECT_NEAR(static_cast<double>(stats.latency.count()),
              static_cast<double>(stats.completed) / 2.0,
              static_cast<double>(stats.completed) * 0.2);
}

TEST(Client, StopsSendingAtStopTime) {
  ClientParams p = base_params(SendMode::kViaSwitch, 1000000.0);
  p.stop_at = SimTime::microseconds(500);
  Rig rig{p};
  rig.client->start();
  rig.sim.run();
  EXPECT_LE(rig.sim.now(), SimTime::microseconds(600));
  // ~500 requests at 1M RPS in 500 us.
  EXPECT_NEAR(static_cast<double>(rig.client->stats().requests_sent), 500.0,
              120.0);
}

TEST(Client, FixedServiceRunRecordsExactSamples) {
  // An open-loop run at about nine requests in flight: the request table
  // grows past its first slots mid-run, and every completion must still
  // record its own request's samples.
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kBaseline;
  cfg.server_workers = {16, 16};
  cfg.factory = std::make_shared<FixedWorkload>(25.0);
  cfg.service = std::make_shared<SyntheticService>(JitterModel{0.0, 1.0});
  cfg.num_clients = 1;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(5);
  cfg.offered_rps = 300000.0;

  harness::Experiment experiment{cfg};
  (void)experiment.run();
  const Client* client = experiment.clients()[0];
  const ClientStats& stats = client->stats();
  EXPECT_GT(stats.completed, 1000U);
  // After stop_at no new requests are issued; everything in flight drains.
  EXPECT_EQ(stats.completed, stats.requests_sent);
  EXPECT_EQ(client->outstanding(), 0U);
  EXPECT_EQ(stats.latency.count(), stats.completed);
  // No jitter: every request executes for exactly 25 us.
  EXPECT_EQ(stats.server_service.min(), SimTime::microseconds(25.0));
  EXPECT_EQ(stats.server_service.max(), SimTime::microseconds(25.0));
  // End to end: service plus path, plus at most one service time of
  // queueing when the random choice puts more than 16 on one server.
  EXPECT_GT(stats.latency.min(), SimTime::microseconds(25.0));
  EXPECT_LT(stats.latency.max(), SimTime::microseconds(60.0));
  EXPECT_LT(stats.server_queue_wait.max(), SimTime::microseconds(25.0));
}

TEST(Client, SequencesAreUniqueAndDense) {
  Rig rig{base_params(SendMode::kViaSwitch, 200000.0)};
  rig.client->start();
  rig.sim.run();
  std::set<std::uint32_t> seqs;
  for (const auto& pkt : rig.wire_end->packets()) {
    EXPECT_TRUE(seqs.insert(pkt.nc().client_seq).second);
  }
  EXPECT_EQ(seqs.size(), rig.client->stats().requests_sent);
}

TEST(Client, ClientIdStampedOnAllPackets) {
  ClientParams p = base_params(SendMode::kViaSwitch);
  p.client_id = 5;
  sim::Simulator sim;
  phys::Topology topo{sim};
  auto& client = topo.add_node<Client>(
      sim, p, std::make_shared<FixedWorkload>(25.0), Rng{7});
  auto& wire_end = topo.add_node<CaptureNode>("wire");
  topo.connect(client, wire_end);
  client.start();
  sim.run();
  for (const auto& pkt : wire_end.packets()) {
    EXPECT_EQ(pkt.nc().client_id, 5);
    EXPECT_EQ(pkt.ip.src, client_ip(5));
  }
}

// -- retransmission resends the same bytes ---------------------------------

/// Received request frames grouped by CLIENT_SEQ, in arrival order.
std::map<std::uint32_t, std::vector<const wire::Frame*>> by_seq(
    const std::vector<CaptureNode::Rx>& received) {
  std::map<std::uint32_t, std::vector<const wire::Frame*>> out;
  for (const CaptureNode::Rx& rx : received) {
    out[wire::Packet::parse(rx.frame).nc().client_seq].push_back(&rx.frame);
  }
  return out;
}

ClientParams retransmit_params(SendMode mode) {
  ClientParams p = base_params(mode);
  p.stop_at = SimTime::microseconds(200);  // a handful of requests
  p.retransmit_timeout = SimTime::microseconds(50);
  p.max_retransmits = 2;
  return p;
}

TEST(ClientRetransmit, ResendSharesThePayloadBufferByteForByte) {
  // With no responder every request retransmits until it gives up; each
  // resend is rebuilt from the request table and must carry the first
  // attempt's bytes, which match the oracle serializer.
  ClientParams p = retransmit_params(SendMode::kViaSwitch);
  sim::Simulator sim;
  phys::Topology topo{sim};
  auto& client = topo.add_node<Client>(
      sim, p, std::make_shared<FixedWorkload>(25.0), Rng{7});
  auto& sink = topo.add_node<CaptureNode>("sink");
  topo.connect(client, sink);
  client.start();
  sim.run();

  ASSERT_GT(client.stats().requests_sent, 0U);
  EXPECT_EQ(client.stats().retransmissions,
            client.stats().requests_sent * p.max_retransmits);
  const auto groups = by_seq(sink.received);
  EXPECT_EQ(groups.size(), client.stats().requests_sent);
  for (const auto& [seq, attempts] : groups) {
    ASSERT_EQ(attempts.size(), 1U + p.max_retransmits) << "seq " << seq;
    const wire::Frame& first = *attempts[0];
    EXPECT_EQ(wire::Packet::parse(first).serialize(), first) << "seq " << seq;
    for (std::size_t i = 1; i < attempts.size(); ++i) {
      EXPECT_EQ(*attempts[i], first)
          << "seq " << seq << " attempt " << i << " changed on the wire";
    }
  }
}

TEST(ClientRetransmit, DirectRandomRebuildsHeadersOverTheSharedPayload) {
  // kDirectRandom re-draws its destination every attempt, so only the
  // destination may change between attempts; every frame must match the
  // oracle serializer byte for byte.
  ClientParams p = retransmit_params(SendMode::kDirectRandom);
  sim::Simulator sim;
  phys::Topology topo{sim};
  auto& client = topo.add_node<Client>(
      sim, p, std::make_shared<FixedWorkload>(25.0), Rng{7});
  auto& sink = topo.add_node<CaptureNode>("sink");
  topo.connect(client, sink);
  client.start();
  sim.run();

  ASSERT_GT(client.stats().requests_sent, 0U);
  const auto groups = by_seq(sink.received);
  for (const auto& [seq, attempts] : groups) {
    ASSERT_EQ(attempts.size(), 1U + p.max_retransmits) << "seq " << seq;
    const wire::Packet first = wire::Packet::parse(*attempts[0]);
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      const wire::Frame& bytes = *attempts[i];
      const wire::Packet pkt = wire::Packet::parse(bytes);
      EXPECT_EQ(pkt.serialize(), bytes) << "seq " << seq << " attempt " << i;
      // Same bytes as the first attempt once its destination is swapped in.
      wire::Packet same = first;
      same.ip.dst = pkt.ip.dst;
      EXPECT_EQ(same.serialize(), bytes) << "seq " << seq << " attempt " << i;
    }
  }
}

TEST(Client, RejectsBadConfigs) {
  sim::Simulator sim;
  ClientParams p = base_params(SendMode::kCClone);
  p.server_ips.resize(1);
  EXPECT_THROW((void)
      Client(sim, p, std::make_shared<FixedWorkload>(1.0), Rng{1}),
      CheckFailure);
  ClientParams p2 = base_params(SendMode::kViaSwitch);
  p2.rate_rps = 0.0;
  EXPECT_THROW((void)
      Client(sim, p2, std::make_shared<FixedWorkload>(1.0), Rng{1}),
      CheckFailure);
  // The server reassembles a request's fragments in a 64-bit mask.
  ClientParams p3 = base_params(SendMode::kViaSwitch);
  p3.request_fragments = 65;
  EXPECT_THROW((void)
      Client(sim, p3, std::make_shared<FixedWorkload>(1.0), Rng{1}),
      CheckFailure);
}

TEST(ClientFaults, ACorruptedFramePaysTheReceiverThread) {
  // A response that fails its checksum is discarded only once the
  // receiver thread has picked it up, so the good copy behind it completes
  // the request one rx_cost later.
  const auto latency = [](bool corrupted_first) {
    ClientParams p = base_params(SendMode::kViaSwitch, 100000.0);
    p.stop_at = SimTime::microseconds(100);  // a handful of requests
    Rig rig{p};
    rig.client->start();
    rig.sim.run();
    const auto pkts = rig.wire_end->packets();
    EXPECT_GE(pkts.size(), 1U);
    const wire::Packet resp =
        netclone::testing::make_response(ServerId{2}, 0, pkts.at(0));
    if (corrupted_first) {
      wire::Frame bad = resp.serialize();
      bad.back() ^= std::byte{0x01};
      rig.wire_end->transmit(0, bad);
    }
    rig.wire_end->transmit(0, resp.serialize());
    rig.sim.run();
    const ClientStats& stats = rig.client->stats();
    EXPECT_EQ(stats.completed, 1U);
    EXPECT_EQ(stats.checksum_drops, corrupted_first ? 1U : 0U);
    return stats.latency.max();
  };
  EXPECT_EQ(latency(true), latency(false) + ClientParams{}.rx_cost);
}

}  // namespace
}  // namespace netclone::host
