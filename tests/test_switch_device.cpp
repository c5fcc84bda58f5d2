#include "sim/simulator.hpp"
#include "pisa/switch_device.hpp"

#include <gtest/gtest.h>

#include "baselines/router.hpp"
#include "core/netclone_program.hpp"
#include "phys/topology.hpp"
#include "pisa/resources.hpp"
#include "test_util.hpp"

namespace netclone::pisa {
namespace {

using namespace netclone::literals;
using netclone::testing::CaptureNode;
using netclone::testing::make_request;

/// Forwards every packet to a fixed port; counts passes in a register.
class EchoProgram : public SwitchProgram {
 public:
  EchoProgram(Pipeline& pipeline, std::size_t out_port)
      : counter_(pipeline, "count", 0), out_port_(out_port) {}

  void on_ingress(wire::PacketView&, PacketMetadata& md,
                  PipelinePass& pass) override {
    (void)counter_.execute(pass, [](std::uint32_t& c) { return ++c; });
    md.egress_port = out_port_;
  }
  [[nodiscard]] const char* name() const override { return "Echo"; }
  [[nodiscard]] std::uint32_t count() const { return counter_.peek(); }

 private:
  RegisterScalar<std::uint32_t> counter_;
  std::size_t out_port_;
};

/// Multicasts requests to group 1, drops responses.
class McastProgram : public SwitchProgram {
 public:
  void on_ingress(wire::PacketView& pkt, PacketMetadata& md,
                  PipelinePass&) override {
    if (pkt.has_netclone() && pkt.type() == wire::MsgType::kResponse) {
      md.drop = true;
      return;
    }
    md.multicast_group = 1;
  }
  [[nodiscard]] const char* name() const override { return "Mcast"; }
};

/// First pass: send to the loopback port. Recirculated pass: forward to
/// port `out`, stamping SID so the test can observe the second pass.
class RecircProgram : public SwitchProgram {
 public:
  RecircProgram(std::size_t loopback, std::size_t out)
      : loopback_(loopback), out_(out) {}

  void on_ingress(wire::PacketView& pkt, PacketMetadata& md,
                  PipelinePass&) override {
    if (md.is_recirculated) {
      pkt.set_sid(99);
      md.egress_port = out_;
    } else {
      md.egress_port = loopback_;
    }
  }
  [[nodiscard]] const char* name() const override { return "Recirc"; }

 private:
  std::size_t loopback_;
  std::size_t out_;
};

/// Rewrites the IPv4 destination, as a cloning or scheduling switch does.
class RewriteDstProgram : public SwitchProgram {
 public:
  RewriteDstProgram(wire::Ipv4Address dst, std::size_t out)
      : dst_(dst), out_(out) {}

  void on_ingress(wire::PacketView& pkt, PacketMetadata& md,
                  PipelinePass&) override {
    pkt.set_ip_dst(dst_);
    md.egress_port = out_;
  }
  [[nodiscard]] const char* name() const override { return "RewriteDst"; }

 private:
  wire::Ipv4Address dst_;
  std::size_t out_;
};

struct Rig {
  sim::Simulator sim;
  phys::Topology topo{sim};
  pisa::SwitchDevice* sw = nullptr;
  CaptureNode* a = nullptr;
  CaptureNode* b = nullptr;
  std::size_t port_a = 0;  // switch-side ports
  std::size_t port_b = 0;
  phys::Link* to_a = nullptr;  // switch -> a
  phys::Link* to_b = nullptr;  // switch -> b

  explicit Rig(phys::LinkParams params = {}) {
    sw = &topo.add_node<SwitchDevice>(sim, "sw");
    a = &topo.add_node<CaptureNode>("a");
    b = &topo.add_node<CaptureNode>("b");
    const phys::DuplexPorts pa = topo.connect(*a, *sw, params);
    const phys::DuplexPorts pb = topo.connect(*b, *sw, params);
    port_a = pa.port_on_b;
    port_b = pb.port_on_b;
    to_a = pa.b_to_a;
    to_b = pb.b_to_a;
  }
};

/// The switch conservation checks of the invariant auditor
/// (harness/invariants.cpp, audit_switch).
void expect_conserved(const SwitchStats& s) {
  EXPECT_EQ(s.rx_frames, s.parse_errors + s.dropped_by_program +
                             s.dropped_while_failed + s.egress_scheduled);
  EXPECT_LE(s.tx_frames + s.recirculated + s.flushed_in_pipeline,
            s.egress_scheduled + s.multicast_copies);
}

TEST(SwitchDevice, ForwardsThroughProgramWithPipelineLatency) {
  Rig rig;
  auto program =
      std::make_shared<EchoProgram>(rig.sw->pipeline(), rig.port_b);
  rig.sw->load_program(program);

  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  ASSERT_EQ(rig.b->received.size(), 1U);
  EXPECT_EQ(program->count(), 1U);
  EXPECT_EQ(rig.sw->stats().rx_frames, 1U);
  EXPECT_EQ(rig.sw->stats().tx_frames, 1U);
  // Two link hops (850 ns each + serialization) + 400 ns pipeline.
  EXPECT_GT(rig.sim.now(), 2100_ns);
}

TEST(SwitchDevice, NoProgramDropsEverything) {
  Rig rig;
  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  EXPECT_TRUE(rig.b->received.empty());
  EXPECT_EQ(rig.sw->stats().dropped_while_failed, 1U);
}

TEST(SwitchDevice, ProgramWithoutDecisionCountsDrop) {
  class NullProgram : public SwitchProgram {
    void on_ingress(wire::PacketView&, PacketMetadata&,
                    PipelinePass&) override {}
    [[nodiscard]] const char* name() const override { return "Null"; }
  };
  Rig rig;
  rig.sw->load_program(std::make_shared<NullProgram>());
  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.sw->stats().dropped_by_program, 1U);
}

TEST(SwitchDevice, ParseErrorsAreCounted) {
  Rig rig;
  rig.sw->load_program(std::make_shared<EchoProgram>(rig.sw->pipeline(),
                                                     rig.port_b));
  rig.a->transmit(0, wire::Frame(10, std::byte{0}));
  rig.sim.run();
  EXPECT_EQ(rig.sw->stats().parse_errors, 1U);
  EXPECT_TRUE(rig.b->received.empty());
}

TEST(SwitchDevice, MulticastCopiesToAllGroupPorts) {
  Rig rig;
  rig.sw->load_program(std::make_shared<McastProgram>());
  rig.sw->configure_multicast_group(1, {rig.port_a, rig.port_b});
  rig.a->transmit(0, make_request(0, 7, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.a->received.size(), 1U);
  EXPECT_EQ(rig.b->received.size(), 1U);
  EXPECT_EQ(rig.sw->stats().multicast_copies, 1U);
  // Copies are identical on the wire.
  EXPECT_EQ(rig.a->received[0].frame, rig.b->received[0].frame);
}

TEST(SwitchDevice, MissingMulticastGroupDrops) {
  Rig rig;
  rig.sw->load_program(std::make_shared<McastProgram>());
  rig.a->transmit(0, make_request(0, 7, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.sw->stats().dropped_by_program, 1U);
}

TEST(SwitchDevice, RecirculationReentersIngress) {
  Rig rig;
  const std::size_t loopback = rig.sw->add_internal_port();
  rig.sw->set_loopback_port(loopback);
  rig.sw->load_program(
      std::make_shared<RecircProgram>(loopback, rig.port_b));

  rig.a->transmit(0, make_request(0, 5, 0, 0).serialize());
  rig.sim.run();
  ASSERT_EQ(rig.b->received.size(), 1U);
  const auto pkt = wire::Packet::parse(rig.b->received[0].frame);
  EXPECT_EQ(pkt.nc().sid, 99);  // stamped on the recirculated pass
  EXPECT_EQ(rig.sw->stats().recirculated, 1U);
  EXPECT_EQ(rig.sw->stats().rx_frames, 2U);  // ingress seen twice
}

TEST(SwitchDevice, FailureDropsAndWipesSoftState) {
  Rig rig;
  auto program =
      std::make_shared<EchoProgram>(rig.sw->pipeline(), rig.port_b);
  rig.sw->load_program(program);

  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(program->count(), 1U);

  rig.sw->fail();
  EXPECT_TRUE(rig.sw->failed());
  EXPECT_EQ(program->count(), 0U);  // registers wiped on reboot

  rig.a->transmit(0, make_request(0, 2, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.b->received.size(), 1U);  // still only the pre-failure one
  EXPECT_GE(rig.sw->stats().dropped_while_failed, 1U);

  rig.sw->recover();
  rig.a->transmit(0, make_request(0, 3, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.b->received.size(), 2U);
  EXPECT_EQ(program->count(), 1U);
}

TEST(SwitchDevice, DoubleFailAndRecoverAreIdempotent) {
  Rig rig;
  rig.sw->fail();
  rig.sw->fail();
  rig.sw->recover();
  rig.sw->recover();
  EXPECT_FALSE(rig.sw->failed());
}

// -- failure while frames are inside the pipeline ---------------------------
//
// The switch hands each copy to its egress link at the end of the pass,
// ready one pipeline latency (400 ns) out. A failure before then loses the
// copy, even when the switch recovers before the copy would have left.

TEST(SwitchDevice, FailureLosesCopiesInsideThePipelineEvenAfterRecovery) {
  Rig rig;
  rig.sw->load_program(
      std::make_shared<EchoProgram>(rig.sw->pipeline(), rig.port_b));
  rig.sw->handle_frame(rig.port_a, make_request(0, 1, 0, 0).serialize());
  rig.sim.schedule_at(100_ns, [&] { rig.sw->fail(); });
  rig.sim.schedule_at(200_ns, [&] { rig.sw->recover(); });
  rig.sim.run();
  EXPECT_TRUE(rig.b->received.empty());
  EXPECT_EQ(rig.sw->stats().flushed_in_pipeline, 1U);
  EXPECT_EQ(rig.sw->stats().tx_frames, 0U);
  EXPECT_EQ(rig.to_b->stats().tx_frames, 0U);
  EXPECT_EQ(rig.to_b->stats().tx_bytes, 0U);
  expect_conserved(rig.sw->stats());
}

TEST(SwitchDevice, EachMulticastCopyLostInThePipelineCountsOnce) {
  Rig rig;
  rig.sw->load_program(std::make_shared<McastProgram>());
  rig.sw->configure_multicast_group(1, {rig.port_a, rig.port_b});
  rig.sw->handle_frame(rig.port_a, make_request(0, 7, 0, 0).serialize());
  rig.sim.schedule_at(100_ns, [&] { rig.sw->fail(); });
  rig.sim.run();
  EXPECT_TRUE(rig.a->received.empty());
  EXPECT_TRUE(rig.b->received.empty());
  EXPECT_EQ(rig.sw->stats().multicast_copies, 1U);
  EXPECT_EQ(rig.sw->stats().flushed_in_pipeline, 2U);
  EXPECT_EQ(rig.sw->stats().tx_frames, 0U);
  EXPECT_EQ(rig.to_a->stats().tx_frames, 0U);
  EXPECT_EQ(rig.to_b->stats().tx_frames, 0U);
  expect_conserved(rig.sw->stats());
}

/// Loads a NetClone program that clones requests from a (the client) to
/// two servers that both sit behind b; each clone's second copy goes
/// through `loopback`.
std::shared_ptr<core::NetCloneProgram> load_netclone(Rig& rig,
                                                     std::size_t loopback) {
  auto program = std::make_shared<core::NetCloneProgram>(
      rig.sw->pipeline(), core::NetCloneConfig{});
  rig.sw->load_program(program);
  for (std::uint8_t sid = 0; sid < 2; ++sid) {
    program->add_server(ServerId{sid}, host::server_ip(ServerId{sid}),
                        rig.port_b, sid + 1U);
    rig.sw->configure_multicast_group(sid + 1U, {rig.port_b, loopback});
  }
  program->install_groups(core::build_group_pairs(2));
  program->add_route(host::client_ip(0), rig.port_a);
  return program;
}

// A fail inside the pass loses the loopback copy in the pipeline, even
// though the switch is back long before the copy would re-enter (at
// 850 ns): a program's own loopback copy, and a NetClone clone's second
// copy, whose original is taken back from its link as well.
TEST(SwitchDevice, FailureLosesALoopbackCopyInsideThePipeline) {
  for (const bool clone : {false, true}) {
    SCOPED_TRACE(clone ? "NetClone clone" : "RecircProgram");
    Rig rig;
    const std::size_t loopback = rig.sw->add_internal_port();
    rig.sw->set_loopback_port(loopback);
    std::shared_ptr<core::NetCloneProgram> netclone;
    if (clone) {
      netclone = load_netclone(rig, loopback);
    } else {
      rig.sw->load_program(
          std::make_shared<RecircProgram>(loopback, rig.port_b));
    }
    rig.sw->handle_frame(rig.port_a, make_request(0, 5, 0, 0).serialize());
    rig.sim.schedule_at(100_ns, [&] { rig.sw->fail(); });
    rig.sim.schedule_at(200_ns, [&] { rig.sw->recover(); });
    rig.sim.run();
    EXPECT_TRUE(rig.b->received.empty());
    EXPECT_EQ(rig.sw->stats().recirculated, 0U);
    EXPECT_EQ(rig.sw->stats().flushed_in_pipeline, clone ? 2U : 1U);
    EXPECT_EQ(rig.sw->stats().rx_frames, 1U);
    expect_conserved(rig.sw->stats());
    if (netclone) {
      EXPECT_EQ(netclone->stats().cloned_requests, 1U);
      EXPECT_EQ(netclone->stats().recirculated_clones, 0U);
    }
  }
}

TEST(SwitchDevice, PipelineFlushRestoresTheEgressLink) {
  phys::LinkParams params;
  params.rate_bps = 1e9;  // slow enough that two frames queue
  params.delay = 850_ns;
  Rig rig{params};
  rig.sw->load_program(
      std::make_shared<EchoProgram>(rig.sw->pipeline(), rig.port_b));
  const wire::Frame frame = make_request(0, 1, 0, 0).serialize();
  // Two copies handed to the b link at t = 0, both ready at 400 ns: the
  // second would wait behind the first and hold a drop-tail slot.
  rig.sw->handle_frame(rig.port_a, frame);
  rig.sw->handle_frame(rig.port_a, frame);
  EXPECT_EQ(rig.to_b->in_flight(), 2U);
  rig.sim.schedule_at(100_ns, [&] {
    rig.sw->fail();
    EXPECT_EQ(rig.to_b->in_flight(), 0U);
    EXPECT_EQ(rig.to_b->queued(), 0U);
    rig.sw->recover();
    // Handed over at 100 ns, ready at 500 ns: the link is idle again, so
    // the frame starts at its ready time, not behind the lost pair.
    rig.sw->handle_frame(rig.port_a, frame);
  });
  rig.sim.run();
  ASSERT_EQ(rig.b->received.size(), 1U);
  const SimTime serialization = SimTime::seconds(
      static_cast<double>(frame.size()) * 8.0 / params.rate_bps);
  EXPECT_EQ(rig.sim.now(), 500_ns + serialization + params.delay);
  EXPECT_EQ(rig.sw->stats().flushed_in_pipeline, 2U);
  EXPECT_EQ(rig.sw->stats().tx_frames, 1U);
  EXPECT_EQ(rig.to_b->stats().tx_frames, 1U);
  expect_conserved(rig.sw->stats());
}

// A pass forwards what its program does not rewrite byte for byte. A
// length field the link corrupted is neither healed nor rewritten, so the
// receiver's checksum check still rejects the frame.
TEST(SwitchDevice, CorruptedLengthFieldsCrossAPassUntouched) {
  Rig rig;
  auto program = std::make_shared<baselines::RouterProgram>(
      rig.sw->pipeline(), /*num_ports=*/rig.port_b + 1);
  program->add_prefix(host::service_vip(), 32, rig.port_b);
  rig.sw->load_program(program);
  const wire::Frame clean = make_request(0, 1, 0, 0).serialize();
  std::size_t flips = 0;
  // IPv4 total length, IPv4 flags + fragment offset, UDP length.
  for (const std::size_t off : {16U, 17U, 20U, 21U, 38U, 39U}) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(off) + " bit " +
                   std::to_string(bit));
      wire::Frame sent = clean;
      sent[off] ^= static_cast<std::byte>(1U << bit);
      rig.b->received.clear();
      rig.a->transmit(0, sent);
      rig.sim.run();
      ASSERT_EQ(rig.b->received.size(), 1U);
      const wire::Frame& got = rig.b->received.front().frame;
      EXPECT_EQ(got, sent);
      EXPECT_FALSE(wire::verify_frame_checksums(got));
      ++flips;
    }
  }
  EXPECT_EQ(flips, 48U);
}

// RFC 768: a zero UDP checksum means the sender computed none. A pass
// that rewrites a field the checksum covers keeps it zero, and the
// receiver accepts the frame.
TEST(SwitchDevice, ZeroUdpChecksumStaysZeroAcrossARewrite) {
  Rig rig;
  const wire::Ipv4Address dst = host::server_ip(ServerId{3});
  rig.sw->load_program(std::make_shared<RewriteDstProgram>(dst, rig.port_b));
  wire::Frame sent = make_request(0, 1, 0, 0).serialize();
  constexpr std::size_t kUdpChecksum = 40;
  sent[kUdpChecksum] = std::byte{0};
  sent[kUdpChecksum + 1] = std::byte{0};
  rig.a->transmit(0, sent);
  rig.sim.run();
  ASSERT_EQ(rig.b->received.size(), 1U);
  const wire::Frame& got = rig.b->received.front().frame;
  EXPECT_EQ(wire::peek_u16(got, kUdpChecksum), 0U);
  EXPECT_EQ(wire::Packet::parse(got).ip.dst, dst);
  EXPECT_TRUE(wire::verify_frame_checksums(got));
}

// -- a fail racing a loopback copy -------------------------------------------
//
// A loopback copy re-enters ingress 450 ns after its egress instant (the
// end of its pass, 400 ns out), in one event. A fail at or before the
// egress instant caught the copy inside the pipeline, even when the
// switch is back by re-entry (FailureLosesALoopbackCopyInsideThePipeline
// above); a later fail meets it at the failed ingress (FailureRace in
// test_deep_edge.cpp).

TEST(SwitchFaults, FailAtTheEgressInstantLosesTheLoopbackCopy) {
  Rig rig;
  const std::size_t loopback = rig.sw->add_internal_port();
  rig.sw->set_loopback_port(loopback);
  rig.sw->load_program(
      std::make_shared<RecircProgram>(loopback, rig.port_b));
  rig.sw->handle_frame(rig.port_a, make_request(0, 5, 0, 0).serialize());
  rig.sim.schedule_at(400_ns, [&] { rig.sw->fail(); });
  rig.sim.schedule_at(500_ns, [&] { rig.sw->recover(); });
  rig.sim.run();
  EXPECT_TRUE(rig.b->received.empty());
  EXPECT_EQ(rig.sw->stats().flushed_in_pipeline, 1U);
  EXPECT_EQ(rig.sw->stats().recirculated, 0U);
  EXPECT_EQ(rig.sw->stats().rx_frames, 1U);
  expect_conserved(rig.sw->stats());
}

TEST(SwitchFaults, FailAfterTheEgressInstantMeetsTheCopyAtIngress) {
  Rig rig;
  const std::size_t loopback = rig.sw->add_internal_port();
  rig.sw->set_loopback_port(loopback);
  rig.sw->load_program(
      std::make_shared<RecircProgram>(loopback, rig.port_b));
  rig.sw->handle_frame(rig.port_a, make_request(0, 5, 0, 0).serialize());
  rig.sim.schedule_at(401_ns, [&] { rig.sw->fail(); });
  rig.sim.run();
  EXPECT_TRUE(rig.b->received.empty());
  EXPECT_EQ(rig.sw->stats().flushed_in_pipeline, 0U);
  EXPECT_EQ(rig.sw->stats().recirculated, 1U);
  EXPECT_EQ(rig.sw->stats().dropped_while_failed, 1U);
  EXPECT_EQ(rig.sw->stats().rx_frames, 2U);
  expect_conserved(rig.sw->stats());
}

}  // namespace
}  // namespace netclone::pisa
