// Robustness fuzzing: no input from the wire may crash the stack. Parsers
// must either succeed or throw CodecError; the switch program — a ToR, or
// an aggregation replica holding its tier's sync hub — must handle any
// syntactically valid packet of every message type, forged chain-sync
// markers included, without violating pipeline constraints.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/netclone_program.hpp"
#include "host/addressing.hpp"
#include "test_util.hpp"
#include "wire/frame.hpp"

namespace netclone {
namespace {

using netclone::testing::make_request;
using netclone::testing::run_ingress;

/// Any message type the parser accepts: kRequest (1) through kChainSync (5).
wire::MsgType any_msg_type(Rng& rng) {
  return static_cast<wire::MsgType>(1 + rng.next_below(5));
}

TEST(FuzzParser, RandomBytesNeverCrash) {
  Rng rng{2024};
  for (int i = 0; i < 20000; ++i) {
    const auto len = static_cast<std::size_t>(rng.next_below(128));
    wire::Frame frame(len);
    for (auto& b : frame) {
      b = static_cast<std::byte>(rng.next_u64());
    }
    try {
      (void)wire::Packet::parse(frame);
    } catch (const wire::CodecError&) {
      // expected for malformed input
    }
  }
}

TEST(FuzzParser, MutatedValidFramesParseOrThrow) {
  Rng rng{7};
  const wire::Frame valid = make_request(0, 1, 0, 0).serialize();
  for (int i = 0; i < 20000; ++i) {
    wire::Frame frame = valid;
    // Flip 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.next_below(frame.size()));
      frame[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
    }
    try {
      const wire::Packet pkt = wire::Packet::parse(frame);
      // A successfully parsed packet must reserialize without throwing.
      (void)pkt.serialize();
    } catch (const wire::CodecError&) {
    }
  }
}

TEST(FuzzParser, TruncationsParseOrThrow) {
  const wire::Frame valid = make_request(0, 1, 0, 0).serialize();
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    wire::Frame frame{valid.begin(),
                      valid.begin() + static_cast<std::ptrdiff_t>(len)};
    try {
      (void)wire::Packet::parse(frame);
    } catch (const wire::CodecError&) {
    }
  }
}

TEST(FuzzProgram, ArbitraryValidHeadersNeverViolatePipeline) {
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  cfg.filter_slots = 64;
  core::NetCloneProgram program{pipeline, cfg};
  for (std::uint8_t i = 0; i < 4; ++i) {
    program.add_server(ServerId{i}, host::server_ip(ServerId{i}), 10 + i,
                       static_cast<std::uint16_t>(i + 1));
  }
  program.install_groups(core::build_group_pairs(4));
  program.add_route(host::client_ip(0), 20);

  Rng rng{99};
  for (int i = 0; i < 50000; ++i) {
    wire::Packet pkt = make_request(
        static_cast<std::uint16_t>(rng.next_below(8)),
        static_cast<std::uint32_t>(rng.next_u32()),
        static_cast<std::uint16_t>(rng.next_below(40)),  // some bad groups
        static_cast<std::uint8_t>(rng.next_below(8)));
    wire::NetCloneHeader& nc = pkt.nc();
    nc.type = any_msg_type(rng);
    nc.clo = static_cast<wire::CloneStatus>(rng.next_below(3));
    nc.sid = static_cast<std::uint8_t>(rng.next_below(256));
    nc.state = static_cast<std::uint16_t>(rng.next_below(65536));
    nc.switch_id = static_cast<std::uint8_t>(rng.next_below(4));
    nc.req_id = rng.next_u32();
    pkt.ip.dst = rng.bernoulli(0.5)
                     ? host::client_ip(0)
                     : wire::Ipv4Address{rng.next_u32()};
    // Only recirculate packets our own clone path could produce: the
    // loopback port is internal to the switch, unreachable from hosts.
    const bool recirculated =
        nc.is_request() && !nc.is_write() &&
        nc.clo == wire::CloneStatus::kClonedOriginal && rng.bernoulli(0.5);
    const auto md =
        run_ingress(program, pipeline, pkt, 0, recirculated);
    // Every packet gets a definite fate.
    EXPECT_TRUE(md.drop || md.egress_port.has_value() ||
                md.multicast_group.has_value());
  }
}

TEST(FuzzProgram, ReplicaWithASyncHubIsAlsoRobust) {
  // The middle replica of a three-switch chain. Its hub holds a few
  // records, so forged markers name known and unknown ones alike.
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  cfg.filter_slots = 64;
  cfg.id_mode = core::RequestIdMode::kClientTuple;
  core::AggChainRole role;
  role.replica_index = 1;
  role.chain_length = 3;
  role.chain_next_port = 30;
  core::NetCloneProgram program{pipeline, cfg, role};
  auto hub = std::make_shared<core::AggChainSyncHub>();
  hub->create(1);
  core::AggChainSyncRecord& admit = hub->create(2);
  admit.filler_next_port = 30;
  admit.admit_target = 2;
  program.set_sync_hub(hub);
  for (std::uint8_t i = 0; i < 4; ++i) {
    program.add_server(ServerId{i}, host::server_ip(ServerId{i}), 10 + i,
                       static_cast<std::uint16_t>(i + 1));
  }
  program.install_groups(core::build_group_pairs(4));
  program.add_route(host::client_ip(0), 20);

  Rng rng{321};
  for (int i = 0; i < 50000; ++i) {
    wire::Packet pkt = make_request(
        static_cast<std::uint16_t>(rng.next_below(8)),
        static_cast<std::uint32_t>(rng.next_u32()),
        static_cast<std::uint16_t>(rng.next_below(40)),
        static_cast<std::uint8_t>(rng.next_below(8)));
    wire::NetCloneHeader& nc = pkt.nc();
    nc.type = any_msg_type(rng);
    nc.clo = static_cast<wire::CloneStatus>(rng.next_below(3));
    nc.sid = static_cast<std::uint8_t>(rng.next_below(256));
    nc.state = static_cast<std::uint16_t>(rng.next_below(65536));
    nc.switch_id = rng.bernoulli(0.5) ? cfg.switch_id : 0;
    nc.req_id = static_cast<std::uint32_t>(rng.next_below(4));
    pkt.ip.dst = rng.bernoulli(0.5)
                     ? host::client_ip(0)
                     : wire::Ipv4Address{rng.next_u32()};
    if (rng.next_below(1000) == 0) {
      program.set_chain_member(!program.chain_member());
    }
    const bool recirculated =
        nc.is_request() && !nc.is_write() &&
        nc.clo == wire::CloneStatus::kClonedOriginal && rng.bernoulli(0.5);
    const auto md = run_ingress(program, pipeline, pkt, 0, recirculated);
    EXPECT_TRUE(md.drop || md.egress_port.has_value() ||
                md.multicast_group.has_value());
  }
  EXPECT_GT(program.stats().unusable_sync_markers, 0U);
  EXPECT_GT(program.stats().chain_sync_markers, 0U);
}

TEST(FuzzProgram, MultipacketVariantIsAlsoRobust) {
  pisa::Pipeline pipeline;
  core::NetCloneConfig cfg;
  cfg.filter_slots = 32;
  cfg.cloned_req_slots = 16;
  cfg.id_mode = core::RequestIdMode::kClientTuple;
  cfg.enable_multipacket = true;
  cfg.num_filter_tables = 4;
  core::NetCloneProgram program{pipeline, cfg};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
  program.install_groups(core::build_group_pairs(2));
  program.add_route(host::client_ip(0), 20);

  Rng rng{123};
  for (int i = 0; i < 50000; ++i) {
    wire::Packet pkt = make_request(
        static_cast<std::uint16_t>(rng.next_below(4)),
        static_cast<std::uint32_t>(rng.next_below(64)),  // id collisions
        static_cast<std::uint16_t>(rng.next_below(3)),
        static_cast<std::uint8_t>(rng.next_below(6)));
    wire::NetCloneHeader& nc = pkt.nc();
    nc.type = any_msg_type(rng);
    nc.frag_count = static_cast<std::uint8_t>(1 + rng.next_below(4));
    nc.frag_idx = static_cast<std::uint8_t>(
        rng.next_below(nc.frag_count));
    nc.req_id = static_cast<std::uint32_t>(rng.next_below(64));
    if (nc.is_response()) {
      nc.clo = static_cast<wire::CloneStatus>(rng.next_below(3));
      pkt.ip.dst = host::client_ip(0);
    }
    const auto md = run_ingress(program, pipeline, pkt);
    EXPECT_TRUE(md.drop || md.egress_port.has_value() ||
                md.multicast_group.has_value());
  }
}

}  // namespace
}  // namespace netclone
