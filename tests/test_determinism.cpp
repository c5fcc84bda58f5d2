// Same-seed reproducibility of a whole experiment, end to end.
//
// The engine's contract is bit-for-bit determinism: events at the same
// timestamp execute in scheduling order, and nothing in the arena (slot
// reuse, heap tombstones, cancellation) may leak into the observable
// schedule. Running an identical fig7-style cluster twice must therefore
// execute the exact same event sequence and measure the exact same
// latency distribution. The golden pins at the end compare runs with
// recorded values instead, so they also catch a change that is
// deterministic but computes something different.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chaos_util.hpp"
#include "harness/experiment.hpp"
#include "harness/faults.hpp"
#include "harness/invariants.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

ClusterConfig fig7_style_cluster(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.scheme = Scheme::kNetClone;
  cfg.server_workers = {8, 8, 8, 8};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15.0});
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(8);
  cfg.drain = SimTime::milliseconds(10);
  cfg.offered_rps =
      cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14) * 0.5;
  cfg.seed = seed;
  return cfg;
}

struct Digest {
  std::uint64_t executed_events;
  ExperimentResult result;
};

Digest run_once(std::uint64_t seed) {
  Experiment experiment(fig7_style_cluster(seed));
  ExperimentResult result = experiment.run();
  return Digest{experiment.executed_events(), result};
}

TEST(Determinism, SameSeedSameEventsSameLatencyDigest) {
  const Digest a = run_once(7);
  const Digest b = run_once(7);

  // Identical event schedules...
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.result.requests_sent, b.result.requests_sent);
  EXPECT_EQ(a.result.completed, b.result.completed);
  EXPECT_EQ(a.result.cloned_requests, b.result.cloned_requests);
  EXPECT_EQ(a.result.filtered_responses, b.result.filtered_responses);
  EXPECT_EQ(a.result.redundant_responses, b.result.redundant_responses);

  // ...and bit-for-bit identical latency digests, not just "close".
  EXPECT_EQ(a.result.p50, b.result.p50);
  EXPECT_EQ(a.result.p99, b.result.p99);
  EXPECT_EQ(a.result.p999, b.result.p999);
  EXPECT_EQ(a.result.mean_us, b.result.mean_us);
  EXPECT_EQ(a.result.achieved_rps, b.result.achieved_rps);
  EXPECT_EQ(a.result.server_wait_p99, b.result.server_wait_p99);
  EXPECT_EQ(a.result.server_service_p99, b.result.server_service_p99);

  // Sanity: the run did real work (the digest is not vacuously equal).
  EXPECT_GT(a.executed_events, 0U);
  EXPECT_GT(a.result.completed, 0U);
}

TEST(Determinism, DifferentSeedsProduceDifferentSchedules) {
  const Digest a = run_once(7);
  const Digest c = run_once(8);
  // Not a hard guarantee of the engine, but with randomized workloads two
  // seeds agreeing event-for-event would mean seeding is broken.
  EXPECT_NE(a.executed_events, c.executed_events);
}

// -- golden pins -------------------------------------------------------------
//
// The tests above compare a run with itself; these compare it with a
// recorded result, so they pin what the data path computes across
// commits: a change that moves one changes simulated behaviour, not just
// speed. The values were re-recorded when links began taking frames with
// a ready time (one event per hop), and again when a host's ingress link
// began delivering each frame at its receive thread's pickup and a clone
// began recirculating in one event: each time executed_events fell, and
// chaos_digest moved only because it folds that count — with the fold
// left out, every digest equals the one recorded before the change.

struct Pin {
  std::uint64_t chaos_digest;
  std::uint64_t completed;
  std::int64_t p99_ns;
  std::uint64_t executed_events;
};

void expect_pinned(const ClusterConfig& cfg, const Pin& pin) {
  Experiment exp{cfg};
  const ExperimentResult result = exp.run();
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(chaos_digest(exp), pin.chaos_digest);
  EXPECT_EQ(result.completed, pin.completed);
  EXPECT_EQ(result.p99.ns(), pin.p99_ns);
  EXPECT_EQ(exp.executed_events(), pin.executed_events);
}

TEST(Determinism, GoldenPinCleanChaosCluster) {
  // Retransmission armed: every request holds a TCP-mode timer.
  expect_pinned(testing::chaos_cluster(/*seed=*/77),
                Pin{6140230645322921474ULL, 279, 130560, 3386});
}

TEST(Determinism, GoldenPinRandomFaultPlan) {
  // Combo 0 of the chaos sweep: crashes, reboots, outages, impairments.
  ClusterConfig cfg = testing::chaos_cluster(/*seed=*/1000);
  Rng plan_rng{0xC0FFEE};
  cfg.faults = testing::random_fault_plan(
      plan_rng, cfg.server_workers.size(), cfg.num_clients);
  expect_pinned(cfg, Pin{10969227387702829547ULL, 296, 585728, 3350});
}

TEST(Determinism, GoldenPinImpairedLinks) {
  // Drops shrink a link's delivery FIFO, duplicates share buffers and
  // reorders swap frames between reserved slots.
  ClusterConfig cfg = testing::chaos_cluster(/*seed=*/9);
  const auto impair = [](const char* link, FaultAction action,
                         double rate) {
    FaultEvent ev;
    ev.at = SimTime::microseconds(600.0);
    ev.target = link;
    ev.action = action;
    ev.value = rate;
    return ev;
  };
  cfg.faults.events = {
      impair("c0-sw0", FaultAction::kDropRate, 0.02),
      impair("sw0-s1", FaultAction::kReorderRate, 0.05),
      impair("s2-sw0", FaultAction::kDuplicateRate, 0.03),
      impair("sw0-c1", FaultAction::kCorruptRate, 0.02),
  };
  expect_pinned(cfg, Pin{5531572714352056751ULL, 269, 464896, 3077});
}

TEST(Determinism, GoldenPinNetCloneRackSched) {
  // The §3.7 integration on Fig. 10's heterogeneous rack in miniature, at
  // a load where requests both clone and join the shorter queue. The
  // values were recorded while the integration still ran a program class
  // of its own, so they show that NetCloneProgram's shorter-queue route
  // computes the same run. chaos_digest is not pinned: it folds the
  // program's stats only since the integration runs NetCloneProgram.
  ClusterConfig cfg = fig7_style_cluster(/*seed=*/3);
  cfg.scheme = Scheme::kNetCloneRackSched;
  cfg.server_workers = {8, 8, 8, 4, 4, 4};
  cfg.offered_rps =
      cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14) * 0.6;
  Experiment exp{cfg};
  const ExperimentResult result = exp.run();
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(result.completed, 6108U);
  EXPECT_EQ(result.p99.ns(), 144384);
  EXPECT_EQ(result.cloned_requests, 3450U);
  EXPECT_EQ(result.filtered_responses, 2708U);
  EXPECT_EQ(exp.executed_events(), 58132U);
}

// -- common random numbers ---------------------------------------------------
//
// NetClone, RackSched and the integration build the same nodes in the
// same order, and their switch draws nothing: at one seed their clients
// issue the same requests, so comparing them is a paired comparison.

/// An Exp(25) factory that records the intrinsic size of every request
/// per client stream. Each client draws from its own Rng, so the stream
/// names the client; streams are kept in the order of their first
/// request.
class RecordingFactory final : public host::RequestFactory {
 public:
  [[nodiscard]] wire::RpcRequest make(Rng& rng) override {
    const wire::RpcRequest request = inner_.make(rng);
    auto stream =
        std::find_if(streams_.begin(), streams_.end(),
                     [&rng](const Stream& s) { return s.rng == &rng; });
    if (stream == streams_.end()) {
      stream = streams_.insert(streams_.end(), Stream{&rng, {}});
    }
    stream->sizes.push_back(request.intrinsic_ns);
    return request;
  }
  [[nodiscard]] double mean_intrinsic_us() const override {
    return inner_.mean_intrinsic_us();
  }
  [[nodiscard]] std::string label() const override { return inner_.label(); }

  [[nodiscard]] std::vector<std::vector<std::uint32_t>> sizes() const {
    std::vector<std::vector<std::uint32_t>> out;
    for (const Stream& stream : streams_) {
      out.push_back(stream.sizes);
    }
    return out;
  }

 private:
  struct Stream {
    const Rng* rng;
    std::vector<std::uint32_t> sizes;
  };
  host::ExponentialWorkload inner_{25.0};
  std::vector<Stream> streams_;
};

struct Issued {
  std::vector<std::uint64_t> requests_sent;  // per client
  std::vector<std::vector<std::uint32_t>> sizes;
};

Issued issue(Scheme scheme) {
  ClusterConfig cfg;  // 6 servers x 16 workers, 2 clients
  cfg.scheme = scheme;
  auto factory = std::make_shared<RecordingFactory>();
  cfg.factory = factory;
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15.0});
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(10);
  cfg.drain = SimTime::milliseconds(5);
  cfg.offered_rps = cluster_capacity_rps(cfg.server_workers, 25.0) * 0.3;
  cfg.seed = 1;
  Experiment exp{cfg};
  (void)exp.run();
  Issued issued;
  for (const host::Client* client : exp.clients()) {
    issued.requests_sent.push_back(client->stats().requests_sent);
  }
  issued.sizes = factory->sizes();
  return issued;
}

TEST(Determinism, SwitchSteeredSchemesIssueTheSameRequests) {
  const Issued netclone = issue(Scheme::kNetClone);
  ASSERT_EQ(netclone.requests_sent.size(), 2U);
  ASSERT_EQ(netclone.sizes.size(), 2U);
  EXPECT_GT(netclone.requests_sent[0] + netclone.requests_sent[1], 10000U);
  for (const Scheme scheme :
       {Scheme::kRackSched, Scheme::kNetCloneRackSched}) {
    SCOPED_TRACE(scheme_name(scheme));
    const Issued other = issue(scheme);
    EXPECT_EQ(other.requests_sent, netclone.requests_sent);
    EXPECT_TRUE(other.sizes == netclone.sizes);
  }
}

}  // namespace
}  // namespace netclone::harness
