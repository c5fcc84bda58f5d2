// Fault-injection subsystem: plan parsing, scenario wiring, checksum
// verification on the receive path, retransmit backoff, fault application
// through Experiment and MultiRackExperiment, and a quick chaos sweep (the
// >=100-combo sweep lives in test_chaos_sweep.cpp, slow lane).
#include "harness/faults.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "chaos_util.hpp"
#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "harness/scenario.hpp"
#include "test_util.hpp"
#include "wire/frame.hpp"

namespace netclone {
namespace {

using harness::FaultAction;
using harness::FaultEvent;
using harness::FaultPlanError;
using harness::parse_fault_entry;
using netclone::testing::make_request;

// ---------------------------------------------------------------------------
// Fault-plan parsing

TEST(FaultPlanParse, LinkDownEntry) {
  const FaultEvent ev = parse_fault_entry("at=2s link_down sw0-s3");
  EXPECT_EQ(ev.at, SimTime::seconds(2.0));
  EXPECT_EQ(ev.action, FaultAction::kLinkDown);
  EXPECT_EQ(ev.target, "sw0-s3");
}

TEST(FaultPlanParse, RateEntryWithScientificNotation) {
  const FaultEvent ev = parse_fault_entry("at=3s corrupt_rate sw0-s1 1e-4");
  EXPECT_EQ(ev.at, SimTime::seconds(3.0));
  EXPECT_EQ(ev.action, FaultAction::kCorruptRate);
  EXPECT_EQ(ev.target, "sw0-s1");
  EXPECT_DOUBLE_EQ(ev.value, 1e-4);
}

TEST(FaultPlanParse, TimeUnits) {
  EXPECT_EQ(parse_fault_entry("at=1500ns switch_wipe sw0").at,
            SimTime::nanoseconds(1500));
  EXPECT_EQ(parse_fault_entry("at=250us switch_wipe sw0").at,
            SimTime::microseconds(250.0));
  EXPECT_EQ(parse_fault_entry("at=3.5ms switch_wipe sw0").at,
            SimTime::milliseconds(3.5));
  EXPECT_EQ(parse_fault_entry("at=2.5s switch_wipe sw0").at,
            SimTime::seconds(2.5));
}

TEST(FaultPlanParse, FilterStaleEntry) {
  const FaultEvent ev = parse_fault_entry("at=5ms filter_stale sw0 1 12345");
  EXPECT_EQ(ev.action, FaultAction::kFilterStale);
  EXPECT_EQ(ev.table, 1U);
  EXPECT_DOUBLE_EQ(ev.value, 12345.0);
}

TEST(FaultPlanParse, ServerActions) {
  EXPECT_EQ(parse_fault_entry("at=1ms server_crash s2").action,
            FaultAction::kServerCrash);
  EXPECT_EQ(parse_fault_entry("at=1ms server_restart s2").action,
            FaultAction::kServerRestart);
  EXPECT_EQ(parse_fault_entry("at=1ms server_pause s0").action,
            FaultAction::kServerPause);
  EXPECT_EQ(parse_fault_entry("at=1ms server_resume s0").action,
            FaultAction::kServerResume);
  const FaultEvent slow = parse_fault_entry("at=1ms server_slowdown s1 4");
  EXPECT_EQ(slow.action, FaultAction::kServerSlowdown);
  EXPECT_DOUBLE_EQ(slow.value, 4.0);
}

TEST(FaultPlanParse, Rejections) {
  EXPECT_THROW((void)parse_fault_entry(""), FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("link_down sw0-s3"), FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2x link_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=s link_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=-2s link_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s melt_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s link_down"), FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s link_down sw0-s3 0.5"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s drop_rate sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s drop_rate sw0-s3 -0.1"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s server_slowdown s1 0"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s filter_stale sw0 0 0"),
               FaultPlanError);
  // Server targets are `s<N>` with the whole rest a decimal index.
  for (const char* entry :
       {"at=2s server_crash s1x", "at=2s server_crash sx",
        "at=2s server_restart s", "at=2s server_pause sw0",
        "at=2s server_resume s-1", "at=2s server_slowdown c1 2"}) {
    EXPECT_THROW((void)parse_fault_entry(entry), FaultPlanError) << entry;
  }
}

TEST(FaultPlanParse, OutOfRangeOperandsAreRejected) {
  for (const char* entry : {
           "at=1e30s link_down sw0-s3",  // ~1e39 ns: no int64 count
           "at=9223372036854775808ns link_down sw0-s3",  // 2^63 ns
           "at=1e400ms link_down sw0-s3",  // overflows to infinity
           "at=2s drop_rate sw0-s3 1.5",
           "at=2s corrupt_rate sw0-s3 inf",
           "at=2s reorder_rate sw0-s3 nan",
           "at=2s duplicate_rate sw0-s3 -0.5",
           "at=2s server_slowdown s1 inf",
           "at=2s server_slowdown s1 nan",
           "at=2s filter_stale sw0 0 4294967296",  // 2^32
           "at=2s filter_stale sw0 1.5 7",
           "at=2s filter_stale sw0 0 7.5",
           "at=2s filter_stale sw0 -1 7",
           "at=2s filter_stale sw0 0 1e3",
       }) {
    EXPECT_THROW((void)parse_fault_entry(entry), FaultPlanError) << entry;
  }
}

TEST(FaultPlanParse, OperandRangeBoundsAreAccepted) {
  EXPECT_DOUBLE_EQ(parse_fault_entry("at=2s drop_rate sw0-s3 0").value, 0.0);
  EXPECT_DOUBLE_EQ(parse_fault_entry("at=2s drop_rate sw0-s3 1").value, 1.0);
  EXPECT_DOUBLE_EQ(
      parse_fault_entry("at=2s server_slowdown s1 0.25").value, 0.25);
  const FaultEvent stale =
      parse_fault_entry("at=2s filter_stale sw0 3 4294967295");
  EXPECT_EQ(stale.table, 3U);
  EXPECT_DOUBLE_EQ(stale.value, 4294967295.0);
  // The largest whole second below 2^63 ns.
  EXPECT_EQ(parse_fault_entry("at=9223372036s link_down sw0-s3").at,
            SimTime::seconds(9223372036.0));
}

TEST(FaultPlanParse, OutOfRangeOperandErrorsCarryLineNumber) {
  for (const char* entry : {
           "at=1e30s link_down sw0-s3",
           "at=2s drop_rate sw0-s3 1.5",
           "at=2s reorder_rate c0-sw0 nan",
           "at=2s server_slowdown s1 inf",
           "at=2s filter_stale sw0 0 4294967297",
           "at=2s filter_stale sw0 1.5 7",
       }) {
    try {
      (void)harness::parse_fault_plan(
          std::string("at=1ms server_crash s0\n\n") + entry + "\n",
          "plan.cfg");
      ADD_FAILURE() << "expected FaultPlanError for " << entry;
    } catch (const FaultPlanError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("plan.cfg: line 3:"), std::string::npos) << what;
    }
  }
}

TEST(FaultPlanParse, ActionNamesRoundTrip) {
  for (const FaultAction action :
       {FaultAction::kLinkDown, FaultAction::kDropRate,
        FaultAction::kServerCrash, FaultAction::kSwitchWipe,
        FaultAction::kFilterStale, FaultAction::kAggFail,
        FaultAction::kAggRejoin, FaultAction::kRackDown,
        FaultAction::kRackUp}) {
    const std::string name = harness::fault_action_name(action);
    EXPECT_NE(name, "?");
  }
}

TEST(FaultPlanParse, FatTreeActions) {
  EXPECT_EQ(parse_fault_entry("at=2ms agg_fail agg1").action,
            FaultAction::kAggFail);
  EXPECT_EQ(parse_fault_entry("at=3ms agg_rejoin agg1").action,
            FaultAction::kAggRejoin);
  EXPECT_EQ(parse_fault_entry("at=1ms rack_down rack0").action,
            FaultAction::kRackDown);
  EXPECT_EQ(parse_fault_entry("at=2ms rack_up rack0").action,
            FaultAction::kRackUp);
  EXPECT_EQ(parse_fault_entry("at=2ms agg_fail agg12").target, "agg12");
}

TEST(FaultPlanParse, FatTreeTargetRejections) {
  // Indexed targets are validated at parse time so a typo names the key
  // instead of exploding at fire time.
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail s0"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail agg"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail aggX"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_rejoin rack1"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms rack_down agg0"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms rack_down rack0x"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail agg0 0.5"),
               FaultPlanError);
}

// ---------------------------------------------------------------------------
// Multi-line plan parsing: file/line/key diagnostics

TEST(FaultPlanParse, MultiLinePlanWithCommentsAndBlanks) {
  const harness::FaultPlan plan = harness::parse_fault_plan(
      "# cluster-wide fault plan\n"
      "\n"
      "at=2ms agg_fail agg1      # kill the middle replica\n"
      "  at=3500us agg_rejoin agg1\n"
      "at=4ms rack_down rack0\n");
  ASSERT_EQ(plan.events.size(), 3U);
  EXPECT_EQ(plan.events[0].action, FaultAction::kAggFail);
  EXPECT_EQ(plan.events[0].target, "agg1");
  EXPECT_EQ(plan.events[1].at, SimTime::microseconds(3500.0));
  EXPECT_EQ(plan.events[2].action, FaultAction::kRackDown);
}

TEST(FaultPlanParse, PlanErrorCarriesLineNumber) {
  try {
    (void)harness::parse_fault_plan(
        "at=1ms server_crash s0\n"
        "# fine so far\n"
        "at=2ms melt_down agg0\n");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("melt_down"), std::string::npos) << what;
  }
}

TEST(FaultPlanParse, PlanErrorCarriesSourceName) {
  try {
    (void)harness::parse_fault_plan("at=2ms agg_fail bogus\n", "plan.cfg");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("plan.cfg: line 1:"), std::string::npos) << what;
    EXPECT_NE(what.find("agg_fail"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Scenario wiring

TEST(ScenarioFaults, RepeatableFaultKey) {
  const harness::Scenario scenario = harness::parse_scenario(
      "servers = 4\n"
      "fault = at=2s link_down sw0-s3\n"
      "fault = at=2.5s link_up sw0-s3   # recovery\n"
      "fault = at=3s corrupt_rate sw0-s1 1e-4\n");
  ASSERT_EQ(scenario.faults.events.size(), 3U);
  EXPECT_EQ(scenario.faults.events[0].action, FaultAction::kLinkDown);
  EXPECT_EQ(scenario.faults.events[1].action, FaultAction::kLinkUp);
  EXPECT_EQ(scenario.faults.events[2].action, FaultAction::kCorruptRate);
  const harness::ClusterConfig cfg = scenario.build_config();
  EXPECT_EQ(cfg.faults.events.size(), 3U);
}

TEST(ScenarioFaults, BadFaultLineReportsLineNumber) {
  try {
    (void)harness::parse_scenario("servers = 4\nfault = at=2s nonsense x\n");
    FAIL() << "expected ScenarioError";
  } catch (const harness::ScenarioError& err) {
    EXPECT_NE(std::string{err.what()}.find("line 2"), std::string::npos);
  }
}

TEST(ScenarioFaults, DefaultTextStillParses) {
  EXPECT_NO_THROW((void)harness::parse_scenario(
      harness::default_scenario_text()));
}

// ---------------------------------------------------------------------------
// Receive-path checksum verification (satellite: hand-flipped byte)

wire::FrameHandle request_frame() {
  wire::Packet pkt = make_request(1, 7, 0, 0);
  return wire::FrameHandle{pkt.serialize()};
}

TEST(ChecksumVerify, AcceptsCleanFrame) {
  EXPECT_TRUE(wire::verify_frame_checksums(request_frame()));
}

TEST(ChecksumVerify, RejectsFlippedPayloadByte) {
  const wire::Frame clean = request_frame().to_frame();
  // Flip one bit in every byte position past the Ethernet header; the
  // IPv4 or UDP checksum must catch each one.
  for (std::size_t off = 14; off < clean.size(); ++off) {
    wire::Frame bad = clean;
    bad[off] ^= std::byte{0x10};
    EXPECT_FALSE(wire::verify_frame_checksums(
        wire::FrameHandle::copy_of(bad)))
        << "flip at offset " << off << " was not detected";
  }
}

TEST(ChecksumVerify, RejectsFlippedByteInSplitFrame) {
  const wire::Frame clean = request_frame().to_frame();
  // Split at an odd boundary inside the UDP segment so verification has
  // to form the straddle word across the head/tail seam.
  for (const std::size_t boundary : {std::size_t{43}, std::size_t{63},
                                     std::size_t{64}}) {
    ASSERT_LT(boundary, clean.size());
    const auto head_span =
        std::span<const std::byte>{clean}.first(boundary);
    const auto tail_span =
        std::span<const std::byte>{clean}.subspan(boundary);
    const wire::FrameHandle split = wire::FrameHandle::compose(
        wire::FrameHandle::copy_of(head_span),
        wire::FrameHandle::copy_of(tail_span));
    ASSERT_TRUE(split.split());
    EXPECT_TRUE(wire::verify_frame_checksums(split))
        << "clean split at " << boundary << " rejected";

    wire::Frame bad = clean;
    bad[clean.size() - 1] ^= std::byte{0x01};  // last payload byte
    const wire::FrameHandle bad_split = wire::FrameHandle::compose(
        wire::FrameHandle::copy_of(
            std::span<const std::byte>{bad}.first(boundary)),
        wire::FrameHandle::copy_of(
            std::span<const std::byte>{bad}.subspan(boundary)));
    EXPECT_FALSE(wire::verify_frame_checksums(bad_split))
        << "split at " << boundary << " missed the flipped byte";
  }
}

TEST(ChecksumVerify, IgnoresNonIpAndNonUdpFrames) {
  // Too short for any checksum: accepted (nothing to verify).
  wire::Frame tiny(10, std::byte{0xAA});
  EXPECT_TRUE(wire::verify_frame_checksums(wire::FrameHandle::copy_of(tiny)));

  // Non-IPv4 EtherType: accepted untouched.
  wire::Frame arp = request_frame().to_frame();
  arp[12] = std::byte{0x08};
  arp[13] = std::byte{0x06};
  EXPECT_TRUE(wire::verify_frame_checksums(wire::FrameHandle::copy_of(arp)));
}

TEST(ChecksumVerify, ClientAndServerCountDrops) {
  // End to end: a corrupting link between client and switch makes the
  // receivers count checksum_drops instead of mis-parsing garbage.
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(7);
  cfg.faults.events.push_back(
      parse_fault_entry("at=600us corrupt_rate sw0-c0 0.05"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=600us corrupt_rate s0-sw0 0.05"));
  harness::Experiment exp{cfg};
  (void)exp.run();
  std::uint64_t drops = 0;
  for (const host::Client* client : exp.clients()) {
    drops += client->stats().checksum_drops;
  }
  const phys::Link* corrupted = exp.link("sw0-c0");
  ASSERT_NE(corrupted, nullptr);
  EXPECT_GT(corrupted->stats().corrupted_frames, 0U);
  EXPECT_GT(drops, 0U);
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Retransmit backoff (satellite: gaps grow and stay deterministic)

harness::ClusterConfig backoff_cluster() {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(42);
  // One closed-loop client with a single-request window: with the switch
  // down from t=0, the retransmit timeline belongs to exactly one request.
  cfg.num_clients = 1;
  cfg.client_template.loop = host::LoopMode::kClosedLoop;
  cfg.client_template.closed_loop_window = 1;
  cfg.client_template.retransmit_timeout = SimTime::microseconds(100.0);
  cfg.client_template.max_retransmits = 8;
  cfg.client_template.retransmit_backoff = 2.0;
  cfg.client_template.retransmit_cap = SimTime::zero();  // uncapped
  cfg.client_template.retransmit_jitter = 0.1;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(40);
  cfg.drain = SimTime::milliseconds(20);
  cfg.faults.events.push_back(parse_fault_entry("at=0s switch_fail sw0"));
  return cfg;
}

std::vector<SimTime> retransmit_times(const harness::ClusterConfig& cfg) {
  harness::Experiment exp{cfg};
  (void)exp.run();
  return exp.clients()[0]->stats().retransmit_times;
}

TEST(RetransmitBackoff, GapsGrowExponentially) {
  const std::vector<SimTime> times = retransmit_times(backoff_cluster());
  ASSERT_EQ(times.size(), 8U);
  SimTime prev_gap = times[0];  // first gap is measured from t=0's send
  for (std::size_t i = 1; i < times.size(); ++i) {
    const SimTime gap = times[i] - times[i - 1];
    // backoff 2.0 with <= 10% jitter: every gap strictly exceeds the
    // previous one (2x growth dominates the jitter band).
    EXPECT_GT(gap, prev_gap) << "gap " << i << " did not grow";
    prev_gap = gap;
  }
  // The final gap is near timeout * 2^7 (within the jitter band).
  const double last_ns = static_cast<double>(
      (times[7] - times[6]).ns());
  EXPECT_GE(last_ns, 100e3 * 128.0);
  EXPECT_LE(last_ns, 100e3 * 128.0 * 1.1 + 1.0);
}

TEST(RetransmitBackoff, CapBoundsTheGaps) {
  harness::ClusterConfig cfg = backoff_cluster();
  cfg.client_template.retransmit_cap = SimTime::microseconds(300.0);
  const std::vector<SimTime> times = retransmit_times(cfg);
  ASSERT_EQ(times.size(), 8U);
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap_ns =
        static_cast<double>((times[i] - times[i - 1]).ns());
    EXPECT_LE(gap_ns, 300e3 * 1.1 + 1.0) << "gap " << i << " exceeds cap";
  }
}

TEST(RetransmitBackoff, DeterministicAcrossRuns) {
  const harness::ClusterConfig cfg = backoff_cluster();
  EXPECT_EQ(retransmit_times(cfg), retransmit_times(cfg));
}

TEST(RetransmitBackoff, JitterDrawsDoNotShiftWorkload) {
  // Arming retransmission must not consume workload-RNG draws: a run
  // whose timeout never fires (it exceeds the horizon) produces the same
  // arrival/completion counts as one with the machinery disabled.
  harness::ClusterConfig with = netclone::testing::chaos_cluster(11);
  with.client_template.retransmit_timeout = SimTime::milliseconds(50);
  harness::ClusterConfig without = netclone::testing::chaos_cluster(11);
  without.client_template.retransmit_timeout = SimTime::zero();
  harness::Experiment e1{with};
  harness::Experiment e2{without};
  const harness::ExperimentResult r1 = e1.run();
  const harness::ExperimentResult r2 = e2.run();
  EXPECT_EQ(r1.requests_sent, r2.requests_sent);
  EXPECT_EQ(r1.completed, r2.completed);
}

// ---------------------------------------------------------------------------
// Fault application through Experiment

TEST(ExperimentFaults, LinkLookupByName) {
  harness::Experiment exp{netclone::testing::chaos_cluster(3)};
  EXPECT_NE(exp.link("c0-sw0"), nullptr);
  EXPECT_NE(exp.link("sw0-c1"), nullptr);
  EXPECT_NE(exp.link("s2-sw0"), nullptr);
  EXPECT_NE(exp.link("sw0-s0"), nullptr);
  EXPECT_EQ(exp.link("sw0-s9"), nullptr);
  EXPECT_EQ(exp.link("bogus"), nullptr);
  // 2 clients + 3 servers, two directed links each.
  EXPECT_EQ(exp.links().size(), 10U);
}

TEST(ExperimentFaults, ApplyLinkAndServerAndSwitchFaults) {
  harness::Experiment exp{netclone::testing::chaos_cluster(4)};

  exp.apply_fault(parse_fault_entry("at=0s link_down sw0-s1"));
  EXPECT_FALSE(exp.link("sw0-s1")->is_up());
  exp.apply_fault(parse_fault_entry("at=0s link_up sw0-s1"));
  EXPECT_TRUE(exp.link("sw0-s1")->is_up());

  exp.apply_fault(parse_fault_entry("at=0s drop_rate c0-sw0 0.25"));
  exp.apply_fault(parse_fault_entry("at=0s corrupt_rate c0-sw0 0.125"));
  const phys::LinkImpairments* cfg = exp.link("c0-sw0")->impairments();
  ASSERT_NE(cfg, nullptr);
  EXPECT_DOUBLE_EQ(cfg->drop_rate, 0.25);    // merged, not overwritten
  EXPECT_DOUBLE_EQ(cfg->corrupt_rate, 0.125);

  exp.apply_fault(parse_fault_entry("at=0s server_crash s0"));
  EXPECT_TRUE(exp.servers()[0]->crashed());
  exp.apply_fault(parse_fault_entry("at=0s server_restart s0"));
  EXPECT_FALSE(exp.servers()[0]->crashed());
  exp.apply_fault(parse_fault_entry("at=0s server_slowdown s1 3"));
  EXPECT_DOUBLE_EQ(exp.servers()[1]->slowdown(), 3.0);

  exp.apply_fault(parse_fault_entry("at=0s switch_wipe sw0"));
  EXPECT_EQ(exp.tor().stats().soft_state_wipes, 1U);
  exp.apply_fault(parse_fault_entry("at=0s filter_stale sw0 0 777"));
  ASSERT_NE(exp.netclone_program(), nullptr);
  EXPECT_EQ(exp.netclone_program()->stats().injected_stale_entries, 1U);

  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s link_down sw0-s9")),
      CheckFailure);
  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s server_crash s9")),
      CheckFailure);

  // Targets resolve exactly. Events built directly (as chaos plans are)
  // skip the parser, so the dispatcher must reject these itself: the
  // whole rest of `s<N>` is the index, and a switch is found by name.
  for (const char* target :
       {"s1x", "sx", "s", "s+1", "s99999999999999999999999", "sw0"}) {
    FaultEvent crash;
    crash.action = FaultAction::kServerCrash;
    crash.target = target;
    EXPECT_THROW(exp.apply_fault(crash), CheckFailure) << target;
  }
  EXPECT_FALSE(exp.servers()[1]->crashed());
  EXPECT_THROW(exp.apply_fault(parse_fault_entry("at=0s switch_wipe bogus")),
               CheckFailure);
  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s switch_fail nowhere")),
      CheckFailure);
  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s filter_stale tor 0 778")),
      CheckFailure);
  EXPECT_EQ(exp.tor().stats().soft_state_wipes, 1U);
  EXPECT_FALSE(exp.tor().failed());
  EXPECT_EQ(exp.netclone_program()->stats().injected_stale_entries, 1U);
}

TEST(ExperimentFaults, FilterStaleNeedsANetCloneProgram) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(4);
  cfg.scheme = harness::Scheme::kBaseline;
  harness::Experiment exp{cfg};
  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s filter_stale sw0 0 777")),
      CheckFailure);
}

TEST(ExperimentFaults, FatTreeActionsRejectedOnSingleRack) {
  // A single-rack plan holding a fat-tree action used to parse, schedule
  // and then silently do nothing.
  for (const char* entry :
       {"at=1ms agg_fail agg0", "at=1ms agg_rejoin agg0",
        "at=1ms rack_down rack0", "at=1ms rack_up rack0"}) {
    const FaultEvent event = parse_fault_entry(entry);
    harness::ClusterConfig cfg = netclone::testing::chaos_cluster(3);
    cfg.faults.events.push_back(parse_fault_entry("at=1ms link_down sw0-s1"));
    cfg.faults.events.push_back(event);
    try {
      harness::Experiment exp{cfg};
      ADD_FAILURE() << entry << " was accepted";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(harness::fault_action_name(event.action)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("MultiRackExperiment"), std::string::npos) << what;
    }
    harness::Experiment exp{netclone::testing::chaos_cluster(3)};
    EXPECT_THROW(exp.apply_fault(event), CheckFailure) << entry;
    harness::FaultPlan plan;
    plan.events.push_back(event);
    EXPECT_THROW(exp.install_fault_plan(plan), CheckFailure) << entry;
  }
}

TEST(ExperimentFaults, FilterStaleCausesFilteredResponseAbsorbedByRetry) {
  // Plant stale fingerprints for upcoming request ids: the first response
  // hashing there is wrongly filtered, and TCP-mode retransmission must
  // absorb the loss (requests still complete).
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(5);
  for (int t = 0; t < 2; ++t) {
    for (std::uint32_t id = 1; id <= 64; ++id) {
      harness::FaultEvent ev;
      ev.at = SimTime::microseconds(550.0);
      ev.action = FaultAction::kFilterStale;
      ev.target = "sw0";
      ev.table = static_cast<std::size_t>(t);
      ev.value = static_cast<double>(
          core::NetCloneProgram::client_tuple_id(t == 0 ? 0 : 1, id));
      cfg.faults.events.push_back(ev);
    }
  }
  harness::Experiment exp{cfg};
  (void)exp.run();
  EXPECT_EQ(exp.netclone_program()->stats().injected_stale_entries, 128U);
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ExperimentFaults, ServerPauseBuffersAndReplays) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(6);
  cfg.faults.events.push_back(
      parse_fault_entry("at=800us server_pause s0"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=1300us server_resume s0"));
  harness::Experiment exp{cfg};
  (void)exp.run();
  EXPECT_GT(exp.servers()[0]->stats().paused_frames, 0U);
  EXPECT_FALSE(exp.servers()[0]->paused());
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ExperimentFaults, ServerCrashVoidsInFlightWork) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(8);
  cfg.faults.events.push_back(
      parse_fault_entry("at=1ms server_crash s1"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=2ms server_restart s1"));
  harness::Experiment exp{cfg};
  (void)exp.run();
  const host::ServerStats& ss = exp.servers()[1]->stats();
  EXPECT_EQ(ss.crashes, 1U);
  EXPECT_GT(ss.abandoned_in_flight, 0U);
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Fault application through MultiRackExperiment: the same dispatcher, on
// the pod's names (switches agg<N>, tor1, tor<N>; racks rack<N>)

harness::MultiRackConfig pod_config(harness::AggMode mode) {
  harness::MultiRackConfig cfg;
  cfg.server_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.num_aggs = 2;
  cfg.agg_mode = mode;
  cfg.workers = 4;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(4);
  cfg.drain = SimTime::milliseconds(3);
  cfg.seed = 5;
  cfg.offered_rps =
      0.5 * harness::cluster_capacity_rps({4, 4, 4, 4}, 25.0 * 1.14);
  return cfg;
}

const pisa::SwitchDevice& pod_switch(const harness::MultiRackExperiment& exp,
                                     const std::string& name) {
  for (const auto& [key, device] : exp.switches()) {
    if (key == name) {
      return *device;
    }
  }
  throw CheckFailure("no switch " + name);
}

TEST(MultiRackFaults, LinkAndServerActionsByPodNames) {
  harness::MultiRackExperiment exp{pod_config(harness::AggMode::kOblivious)};

  exp.apply_fault(parse_fault_entry("at=0s link_down tor1-agg0"));
  EXPECT_FALSE(exp.link("tor1-agg0")->is_up());
  EXPECT_TRUE(exp.link("agg0-tor1")->is_up());
  exp.apply_fault(parse_fault_entry("at=0s link_up tor1-agg0"));
  EXPECT_TRUE(exp.link("tor1-agg0")->is_up());

  exp.apply_fault(parse_fault_entry("at=0s drop_rate tor2-s0 0.25"));
  exp.apply_fault(parse_fault_entry("at=0s reorder_rate tor2-s0 0.125"));
  const phys::LinkImpairments* cfg = exp.link("tor2-s0")->impairments();
  ASSERT_NE(cfg, nullptr);
  EXPECT_DOUBLE_EQ(cfg->drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(cfg->reorder_rate, 0.125);

  // Server ids are global across racks: s3 is rack 1's second server.
  exp.apply_fault(parse_fault_entry("at=0s server_crash s3"));
  EXPECT_TRUE(exp.servers()[3]->crashed());
  exp.apply_fault(parse_fault_entry("at=0s server_restart s3"));
  EXPECT_FALSE(exp.servers()[3]->crashed());
  exp.apply_fault(parse_fault_entry("at=0s server_slowdown s2 2.5"));
  EXPECT_DOUBLE_EQ(exp.servers()[2]->slowdown(), 2.5);

  EXPECT_THROW(exp.apply_fault(parse_fault_entry("at=0s link_down sw0-s0")),
               CheckFailure);
  EXPECT_THROW(exp.apply_fault(parse_fault_entry("at=0s server_crash s4")),
               CheckFailure);
  FaultEvent bad_server;
  bad_server.action = FaultAction::kServerPause;
  bad_server.target = "s1x";
  EXPECT_THROW(exp.apply_fault(bad_server), CheckFailure);
  EXPECT_FALSE(exp.servers()[1]->paused());
}

TEST(MultiRackFaults, SwitchActionsOnTorsAndAggs) {
  harness::MultiRackExperiment exp{pod_config(harness::AggMode::kOblivious)};

  exp.apply_fault(parse_fault_entry("at=0s switch_fail tor1"));
  EXPECT_TRUE(pod_switch(exp, "tor1").failed());
  exp.apply_fault(parse_fault_entry("at=0s switch_recover tor1"));
  EXPECT_FALSE(pod_switch(exp, "tor1").failed());
  exp.apply_fault(parse_fault_entry("at=0s switch_wipe tor2"));
  EXPECT_EQ(pod_switch(exp, "tor2").stats().soft_state_wipes, 1U);
  EXPECT_EQ(pod_switch(exp, "tor3").stats().soft_state_wipes, 0U);
  exp.apply_fault(parse_fault_entry("at=0s switch_fail agg0"));
  EXPECT_TRUE(pod_switch(exp, "agg0").failed());
  EXPECT_FALSE(pod_switch(exp, "agg1").failed());

  for (const char* entry :
       {"at=0s switch_fail tor9", "at=0s switch_wipe sw0",
        "at=0s switch_recover agg"}) {
    EXPECT_THROW(exp.apply_fault(parse_fault_entry(entry)), CheckFailure)
        << entry;
  }
  EXPECT_FALSE(pod_switch(exp, "tor1").failed());
}

TEST(MultiRackFaults, FilterStalePlantsIntoNetCloneTors) {
  harness::MultiRackExperiment oblivious{
      pod_config(harness::AggMode::kOblivious)};
  oblivious.apply_fault(parse_fault_entry("at=0s filter_stale tor1 0 777"));
  EXPECT_EQ(oblivious.client_tor_program().stats().injected_stale_entries,
            1U);
  oblivious.apply_fault(parse_fault_entry("at=0s filter_stale tor2 1 778"));
  EXPECT_EQ(oblivious.server_tor_program(0).stats().injected_stale_entries,
            1U);
  EXPECT_EQ(oblivious.server_tor_program(1).stats().injected_stale_entries,
            0U);
  // The aggs route, and tor9 does not exist.
  EXPECT_THROW(
      oblivious.apply_fault(parse_fault_entry("at=0s filter_stale agg0 0 9")),
      CheckFailure);
  EXPECT_THROW(
      oblivious.apply_fault(parse_fault_entry("at=0s filter_stale tor9 0 9")),
      CheckFailure);

  // In replicated mode the client ToR is a plain router.
  harness::MultiRackExperiment replicated{
      pod_config(harness::AggMode::kReplicated)};
  EXPECT_THROW(
      replicated.apply_fault(parse_fault_entry("at=0s filter_stale tor1 0 9")),
      CheckFailure);
  replicated.apply_fault(parse_fault_entry("at=0s filter_stale tor3 0 779"));
  EXPECT_EQ(replicated.server_tor_program(1).stats().injected_stale_entries,
            1U);
  // The replicas run NetClone too, but a fingerprint planted into one of
  // them alone would break the chain's convergence.
  try {
    replicated.apply_fault(parse_fault_entry("at=0s filter_stale agg0 0 9"));
    ADD_FAILURE() << "filter_stale planted into a chain replica";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("convergence"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(replicated.agg_netclone_program(0).stats().injected_stale_entries,
            0U);
}

TEST(MultiRackFaults, RackDownAndUpToggleEveryTrunkOfTheRack) {
  harness::MultiRackExperiment exp{pod_config(harness::AggMode::kOblivious)};
  const auto trunks_up = [&](const std::string& tor) {
    bool up = true;
    for (const char* agg : {"agg0", "agg1"}) {
      up = up && exp.link(tor + "-" + agg)->is_up() &&
           exp.link(agg + ("-" + tor))->is_up();
    }
    return up;
  };
  exp.apply_fault(parse_fault_entry("at=0s rack_down rack0"));
  EXPECT_FALSE(exp.link("tor2-agg0")->is_up());
  EXPECT_FALSE(exp.link("agg1-tor2")->is_up());
  EXPECT_TRUE(trunks_up("tor3"));
  exp.apply_fault(parse_fault_entry("at=0s rack_up rack0"));
  EXPECT_TRUE(trunks_up("tor2"));

  EXPECT_THROW(exp.apply_fault(parse_fault_entry("at=0s rack_down rack2")),
               CheckFailure);
  FaultEvent bad_rack;
  bad_rack.action = FaultAction::kRackDown;
  bad_rack.target = "rack0x";
  EXPECT_THROW(exp.apply_fault(bad_rack), CheckFailure);
  EXPECT_TRUE(trunks_up("tor2"));
}

TEST(MultiRackFaults, ChainActionsRideTheReplicatedPlanOnly) {
  const FaultEvent fail = parse_fault_entry("at=1ms agg_fail agg0");
  const FaultEvent rejoin = parse_fault_entry("at=2ms agg_rejoin agg0");
  for (const harness::AggMode mode :
       {harness::AggMode::kOblivious, harness::AggMode::kReplicated}) {
    harness::MultiRackExperiment exp{pod_config(mode)};
    // They expand into several timed steps, so they cannot fire now.
    EXPECT_THROW(exp.apply_fault(fail), CheckFailure);
    EXPECT_THROW(exp.apply_fault(rejoin), CheckFailure);
  }

  // An oblivious pod has no chain to fail over: its plan is rejected
  // before anything is scheduled.
  harness::MultiRackConfig cfg = pod_config(harness::AggMode::kOblivious);
  cfg.faults.events.push_back(parse_fault_entry("at=1ms link_down tor1-agg0"));
  cfg.faults.events.push_back(fail);
  EXPECT_THROW(harness::MultiRackExperiment{cfg}, CheckFailure);
  harness::MultiRackExperiment oblivious{
      pod_config(harness::AggMode::kOblivious)};
  harness::FaultPlan plan;
  plan.events = {parse_fault_entry("at=1ms link_down tor1-agg0"), fail};
  EXPECT_THROW(oblivious.install_fault_plan(plan), CheckFailure);
  (void)oblivious.run();
  EXPECT_TRUE(oblivious.link("tor1-agg0")->is_up());
  EXPECT_EQ(oblivious.link("tor1-agg0")->stats().dropped_frames, 0U);

  // A replicated pod takes them in its plan, for aggs it has.
  harness::MultiRackExperiment replicated{
      pod_config(harness::AggMode::kReplicated)};
  plan.events = {parse_fault_entry("at=1ms agg_fail agg2")};
  EXPECT_THROW(replicated.install_fault_plan(plan), CheckFailure);
  plan.events = {fail, rejoin};
  replicated.install_fault_plan(plan);
  (void)replicated.run();
  ASSERT_NE(replicated.chain_controller(), nullptr);
  EXPECT_EQ(replicated.chain_controller()->fails_of(0), 1U);
  EXPECT_EQ(replicated.chain_controller()->fails_of(1), 0U);
  const harness::InvariantReport report =
      harness::audit_invariants(replicated);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(MultiRackFaults, PodResultsReportTheServerSideSplit) {
  harness::MultiRackExperiment exp{pod_config(harness::AggMode::kReplicated)};
  const harness::ExperimentResult result = exp.run();
  ASSERT_GT(result.completed, 0U);
  EXPECT_GT(result.server_wait_p99.ns(), 0);
  EXPECT_LE(result.server_wait_p99, result.p99);
  EXPECT_GT(result.server_service_p99.ns(), 0);
  EXPECT_LE(result.server_service_p99, result.p99);
  EXPECT_GT(result.empty_queue_fraction, 0.0);
  EXPECT_LT(result.empty_queue_fraction, 1.0);
}

// ---------------------------------------------------------------------------
// Clean-run audits: the auditor holds on every scheme without faults

TEST(InvariantAuditor, CleanRunsPassOnEveryScheme) {
  for (const harness::Scheme scheme :
       {harness::Scheme::kBaseline, harness::Scheme::kCClone,
        harness::Scheme::kNetClone, harness::Scheme::kRackSched}) {
    harness::ClusterConfig cfg = netclone::testing::chaos_cluster(20);
    cfg.scheme = scheme;
    if (scheme != harness::Scheme::kNetClone) {
      cfg.netclone.id_mode = core::RequestIdMode::kSwitchSequence;
      cfg.client_template.retransmit_timeout = SimTime::zero();
    }
    harness::Experiment exp{cfg};
    (void)exp.run();
    const harness::InvariantReport report = harness::audit_invariants(exp);
    EXPECT_TRUE(report.ok())
        << harness::scheme_name(scheme) << ":\n"
        << report.to_string();
    EXPECT_NE(harness::chaos_digest(exp), 0U);
  }
}

// ---------------------------------------------------------------------------
// Quick chaos sweep (tier1); the full sweep is in test_chaos_sweep.cpp

TEST(ChaosSweepQuick, TwelveCombos) {
  for (std::uint64_t combo = 0; combo < 12; ++combo) {
    netclone::testing::run_chaos_combo(combo);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace netclone
