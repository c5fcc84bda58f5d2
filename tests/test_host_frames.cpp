// The byte oracle for every frame a host writes.
//
// Clients stamp their requests from header templates, servers write each
// response over its request's own frame when they can, and C-Clone
// cancels, fragment markers and the chain controller's sync markers are
// header-only frames (wire/udp_frame.hpp). Each test here drives a real
// host (or writes a sync marker), captures what it sends, and holds every
// frame equal, byte for byte, to Packet::serialize() of the fields that
// frame should carry — built independently, through make_netclone_packet
// or by filling a Packet. The tests also pin which pool each frame came
// from and, for a server, where each response was written: over the
// request's frame, in a fresh frame when the response outgrows the
// request's buffer, or in a fresh frame when another holder shares it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "harness/chain_controller.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "host/service.hpp"
#include "kv/kv_workload.hpp"
#include "kv/store.hpp"
#include "phys/topology.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "wire/frame.hpp"

namespace netclone::host {
namespace {

using netclone::testing::CaptureNode;
using wire::Frame;
using wire::FrameHandle;
using wire::NetCloneHeader;
using wire::Packet;

constexpr std::uint16_t kClientId = 3;

/// A topology endpoint that keeps the handles it receives, so a test can
/// see which buffer each frame was written in.
class HandleSink : public phys::Node {
 public:
  HandleSink() : phys::Node("sink") {}
  void handle_frame(std::size_t /*port*/, FrameHandle frame) override {
    frames.push_back(std::move(frame));
  }
  /// Transmits a frame out of a port (protected in Node).
  void transmit(std::size_t port, FrameHandle frame) {
    send(port, std::move(frame));
  }
  std::vector<FrameHandle> frames;
};

// -- requests ----------------------------------------------------------------

ClientParams client_params(SendMode mode) {
  ClientParams p;
  p.client_id = kClientId;
  p.mode = mode;
  p.rate_rps = 200000.0;
  p.num_groups = 30;
  p.num_filter_tables = 2;
  p.target = service_vip();
  for (std::uint8_t i = 0; i < 6; ++i) {
    p.server_ips.push_back(server_ip(ServerId{i}));
  }
  p.stop_at = SimTime::microseconds(300);
  return p;
}

/// A client sending into a sink; the topology hands the client the rig's
/// pool.
struct ClientRig {
  wire::FramePool pool;
  sim::Simulator sim;
  phys::Topology topo{sim, pool};
  Client* client = nullptr;
  HandleSink* sink = nullptr;

  ClientRig(const ClientParams& params,
            std::shared_ptr<RequestFactory> factory) {
    client = &topo.add_node<Client>(sim, params, std::move(factory),
                                    Rng{11});
    sink = &topo.add_node<HandleSink>();
    topo.connect(*client, *sink);
  }
};

/// The request frame client kClientId sends to `dst`: its addressing,
/// `nc` and `body`, through the oracle.
Frame oracle_request(wire::Ipv4Address dst, const NetCloneHeader& nc,
                     const wire::RpcRequest& body) {
  return wire::make_netclone_packet(
             wire::MacAddress::from_node(0x0200U + kClientId),
             wire::MacAddress::broadcast(), client_ip(kClientId), dst,
             static_cast<std::uint16_t>(40000 + kClientId), nc,
             body.to_frame())
      .serialize();
}

/// The NetClone header a request carries: the type its op travels as,
/// the draws and ordinals the client made (read back from `sent`), and
/// every other field zero.
NetCloneHeader request_header(const wire::RpcRequest& body,
                              const Packet& sent) {
  NetCloneHeader nc;
  nc.type = body.op == wire::RpcOp::kSet ? wire::MsgType::kWriteRequest
                                         : wire::MsgType::kRequest;
  nc.grp = sent.nc().grp;
  nc.idx = sent.nc().idx;
  nc.client_id = kClientId;
  nc.client_seq = sent.nc().client_seq;
  nc.frag_idx = sent.nc().frag_idx;
  nc.frag_count = sent.nc().frag_count;
  return nc;
}

/// The synthetic body FixedWorkload(25) draws for every request.
wire::RpcRequest fixed_body() {
  wire::RpcRequest body;
  body.intrinsic_ns = 25000;
  return body;
}

TEST(HostFrames, RequestsViaSwitchMatchTheOracle) {
  ClientRig rig{client_params(SendMode::kViaSwitch),
                std::make_shared<FixedWorkload>(25.0)};
  rig.client->start();
  rig.sim.run();
  ASSERT_GT(rig.sink->frames.size(), 10U);
  std::uint32_t seq = 1;
  for (const FrameHandle& frame : rig.sink->frames) {
    const Packet sent = Packet::parse(frame.bytes());
    EXPECT_EQ(sent.nc().client_seq, seq++);
    EXPECT_EQ(frame.to_frame(),
              oracle_request(service_vip(),
                             request_header(fixed_body(), sent),
                             fixed_body()));
  }
}

TEST(HostFrames, KvRequestsAndWritesMatchTheOracle) {
  // GET, SCAN and SET bodies; a SET travels as WREQ.
  kv::KvMix mix;
  mix.get_fraction = 0.5;
  mix.set_fraction = 0.25;
  mix.num_keys = 1000;
  ClientRig rig{client_params(SendMode::kViaSwitch),
                std::make_shared<kv::KvRequestFactory>(
                    mix, kv::redis_profile())};
  rig.client->start();
  rig.sim.run();
  std::set<wire::RpcOp> ops;
  for (const FrameHandle& frame : rig.sink->frames) {
    const Packet sent = Packet::parse(frame.bytes());
    const wire::RpcRequest body = wire::RpcRequest::from_frame(sent.payload);
    ops.insert(body.op);
    EXPECT_EQ(frame.to_frame(),
              oracle_request(service_vip(), request_header(body, sent),
                             body));
  }
  EXPECT_EQ(ops.size(), 3U) << "the mix should draw GET, SCAN and SET";
}

TEST(HostFrames, DirectRandomRequestsMatchTheOracle) {
  const ClientParams params = client_params(SendMode::kDirectRandom);
  ClientRig rig{params, std::make_shared<FixedWorkload>(25.0)};
  rig.client->start();
  rig.sim.run();
  std::set<std::uint32_t> dsts;
  for (const FrameHandle& frame : rig.sink->frames) {
    const Packet sent = Packet::parse(frame.bytes());
    dsts.insert(sent.ip.dst.value);
    EXPECT_EQ(frame.to_frame(),
              oracle_request(sent.ip.dst,
                             request_header(fixed_body(), sent),
                             fixed_body()));
  }
  // Every destination is one of the workers, each with its own template.
  EXPECT_EQ(dsts.size(), params.server_ips.size());
  for (const wire::Ipv4Address ip : params.server_ips) {
    EXPECT_EQ(dsts.count(ip.value), 1U);
  }
}

TEST(HostFrames, CCloneRequestPairsMatchTheOracle) {
  ClientRig rig{client_params(SendMode::kCClone),
                std::make_shared<FixedWorkload>(25.0)};
  rig.client->start();
  rig.sim.run();
  std::map<std::uint32_t, std::vector<Packet>> by_seq;
  for (const FrameHandle& frame : rig.sink->frames) {
    const Packet sent = Packet::parse(frame.bytes());
    by_seq[sent.nc().client_seq].push_back(sent);
    EXPECT_EQ(frame.to_frame(),
              oracle_request(sent.ip.dst,
                             request_header(fixed_body(), sent),
                             fixed_body()));
  }
  ASSERT_FALSE(by_seq.empty());
  for (const auto& [seq, copies] : by_seq) {
    ASSERT_EQ(copies.size(), 2U) << "seq " << seq;
    EXPECT_NE(copies[0].ip.dst, copies[1].ip.dst) << "seq " << seq;
  }
}

TEST(HostFrames, RetransmittedFragmentsMatchTheOracle) {
  // TCP mode with nothing answering: every request goes out as three
  // fragments, then twice more on timeout, each attempt written afresh.
  ClientParams params = client_params(SendMode::kViaSwitch);
  params.stop_at = SimTime::microseconds(100);
  params.request_fragments = 3;
  params.retransmit_timeout = SimTime::microseconds(50);
  params.max_retransmits = 2;
  ClientRig rig{params, std::make_shared<FixedWorkload>(25.0)};
  rig.client->start();
  rig.sim.run();
  const ClientStats& stats = rig.client->stats();
  ASSERT_GT(stats.requests_sent, 0U);
  EXPECT_EQ(stats.retransmissions, stats.requests_sent * 2);
  std::map<std::pair<std::uint32_t, std::uint8_t>, int> attempts;
  for (const FrameHandle& frame : rig.sink->frames) {
    const Packet sent = Packet::parse(frame.bytes());
    EXPECT_EQ(sent.nc().frag_count, 3);
    ++attempts[{sent.nc().client_seq, sent.nc().frag_idx}];
    EXPECT_EQ(frame.to_frame(),
              oracle_request(service_vip(),
                             request_header(fixed_body(), sent),
                             fixed_body()));
  }
  EXPECT_EQ(attempts.size(), stats.requests_sent * 3);
  for (const auto& [key, count] : attempts) {
    EXPECT_EQ(count, 3) << "seq " << key.first << " fragment "
                        << int{key.second};
  }
}

TEST(HostFrames, CCloneCancelMatchesTheOracle) {
  ClientParams params = client_params(SendMode::kCClone);
  params.stop_at = SimTime::microseconds(10);  // one request
  params.cclone_cancel = true;
  ClientRig rig{params, std::make_shared<FixedWorkload>(25.0)};
  rig.client->start();
  rig.sim.run();
  ASSERT_EQ(rig.sink->frames.size(), 2U);
  const Packet first = Packet::parse(rig.sink->frames[0].bytes());
  const Packet second = Packet::parse(rig.sink->frames[1].bytes());
  // The first copy's server answers; the client cancels the second copy.
  const auto sid = static_cast<ServerId>(
      static_cast<std::uint8_t>(first.ip.dst.value & 0xFFU) - 101U);
  ASSERT_EQ(server_ip(sid), first.ip.dst);
  rig.sink->transmit(0, netclone::testing::make_response(sid, 0, first)
                            .serialize());
  rig.sim.run();
  ASSERT_EQ(rig.client->stats().cancels_sent, 1U);
  ASSERT_EQ(rig.sink->frames.size(), 3U);
  NetCloneHeader nc;
  nc.type = wire::MsgType::kCancel;
  nc.client_id = kClientId;
  nc.client_seq = first.nc().client_seq;
  EXPECT_EQ(rig.sink->frames[2].to_frame(),
            wire::make_netclone_packet(
                wire::MacAddress::from_node(0x0200U + kClientId),
                wire::MacAddress::broadcast(), client_ip(kClientId),
                second.ip.dst,
                static_cast<std::uint16_t>(40000 + kClientId), nc, {})
                .serialize());
  // Both copies and the cancel came from the client's pool.
  EXPECT_EQ(rig.pool.stats().acquired, 3U);
}

// -- chain-sync markers ------------------------------------------------------

TEST(HostFrames, ChainSyncMarkerMatchesTheOracle) {
  wire::FramePool pool;
  for (const auto& [switch_id, sync_id] :
       {std::pair<std::uint8_t, std::uint32_t>{1, 1},
        std::pair<std::uint8_t, std::uint32_t>{2, 0xC0FFEE},
        std::pair<std::uint8_t, std::uint32_t>{255, 0xFFFFFFFF}}) {
    NetCloneHeader nc;
    nc.type = wire::MsgType::kChainSync;
    nc.req_id = sync_id;
    nc.switch_id = switch_id;
    EXPECT_EQ(harness::chain_sync_marker(pool, switch_id, sync_id).to_frame(),
              wire::make_netclone_packet(wire::MacAddress::broadcast(),
                                         wire::MacAddress::broadcast(),
                                         service_vip(), service_vip(),
                                         /*src_port=*/0, nc, {})
                  .serialize())
        << "switch " << int{switch_id} << " sync " << sync_id;
  }
  EXPECT_EQ(pool.stats().acquired, 3U);
  EXPECT_EQ(pool.stats().live, 0U);
}

// -- responses ---------------------------------------------------------------

constexpr ServerId kSid{4};

/// A server answering into a sink, with every frame drawn from the rig's
/// own pool. Jitter-free, so a response's timing fields are exact.
struct ServerRig {
  wire::FramePool pool;
  sim::Simulator sim;
  phys::Topology topo{sim, pool};
  Server* server = nullptr;
  HandleSink* sink = nullptr;

  explicit ServerRig(std::shared_ptr<ServiceModel> service,
                     std::uint8_t response_fragments = 1) {
    ServerParams params;
    params.sid = kSid;
    params.workers = 4;
    params.response_fragments = response_fragments;
    server = &topo.add_node<Server>(sim, params, std::move(service),
                                    Rng{5});
    sink = &topo.add_node<HandleSink>();
    topo.connect(*server, *sink);
  }
};

/// A request from client kClientId through the switch: cloned, with a
/// switch-assigned REQ_ID and SWITCH_ID, carrying `body`.
Packet switched_request(const wire::RpcRequest& body) {
  Packet req = netclone::testing::make_request(kClientId, 77, 12, 1);
  req.eth.src = wire::MacAddress::from_node(0x0900);  // the ToR's port
  req.ip.dst = server_ip(kSid);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 0xABCDEF;
  req.nc().switch_id = 2;
  req.payload = body.to_frame();
  return req;
}

/// The response the server should send for `request`: fragment
/// `frag_idx` of `frag_count`, carrying `body` when given.
Frame oracle_response(const Packet& request, const wire::RpcResponse* body,
                      std::uint8_t frag_idx = 0,
                      std::uint8_t frag_count = 1) {
  Packet resp;
  resp.eth.src = wire::MacAddress::from_node(0x0100U + value_of(kSid));
  resp.eth.dst = request.eth.src;
  resp.ip.src = server_ip(kSid);
  resp.ip.dst = request.ip.src;
  resp.udp.src_port = wire::kNetClonePort;
  resp.udp.dst_port = request.udp.src_port;
  resp.netclone = request.nc();
  resp.nc().type = wire::MsgType::kResponse;
  resp.nc().sid = value_of(kSid);
  resp.nc().state = 0;  // the queue is empty when it answers
  resp.nc().frag_idx = frag_idx;
  resp.nc().frag_count = frag_count;
  if (body != nullptr) {
    resp.payload = body->to_frame();
  }
  return resp.serialize();
}

/// What a response for a request that ran `service_ns` without queueing
/// carries.
wire::RpcResponse response_body(std::uint32_t service_ns) {
  wire::RpcResponse body;
  body.service_ns = service_ns;
  return body;
}

/// Hands the rig's server `request` as one frame of the rig's pool and
/// runs it to completion. Returns the request frame's buffer address.
const std::byte* serve(ServerRig& rig, const Packet& request) {
  FrameHandle frame =
      netclone::testing::copy_into(rig.pool, request.serialize());
  const std::byte* buffer = frame.bytes().data();
  rig.server->handle_frame(0, std::move(frame));
  rig.sim.run();
  return buffer;
}

std::shared_ptr<ServiceModel> synthetic_service() {
  return std::make_shared<SyntheticService>(JitterModel{0.0, 15.0});
}

std::shared_ptr<ServiceModel> kv_service() {
  auto store = std::make_shared<kv::KvStore>(1000);
  kv::populate(*store, 1000);
  return std::make_shared<kv::KvService>(store, kv::redis_profile(),
                                         JitterModel{0.0, 15.0});
}

TEST(HostFrames, SyntheticResponseIsWrittenOverItsRequest) {
  ServerRig rig{synthetic_service()};
  const Packet request = switched_request(fixed_body());
  const std::byte* buffer = serve(rig, request);
  ASSERT_EQ(rig.sink->frames.size(), 1U);
  const FrameHandle& response = rig.sink->frames[0];
  const wire::RpcResponse body = response_body(25000);
  EXPECT_EQ(response.to_frame(), oracle_response(request, &body));
  // A 74-byte response fits the 80-byte request's buffer: no new frame.
  EXPECT_EQ(response.bytes().data(), buffer);
  EXPECT_EQ(rig.pool.stats().acquired, 1U);
}

TEST(HostFrames, KvScanAndNotFoundResponsesAreWrittenOverTheirRequests) {
  ServerRig rig{kv_service()};
  // SCAN: an 8-byte digest, 82 bytes in all.
  wire::RpcRequest scan;
  scan.op = wire::RpcOp::kScan;
  scan.key = 17;
  scan.scan_count = 100;
  const Packet scan_request = switched_request(scan);
  const std::byte* scan_buffer = serve(rig, scan_request);
  // GET of an object that is not there: status only, 74 bytes.
  wire::RpcRequest missing;
  missing.op = wire::RpcOp::kGet;
  missing.key = 5000;
  const Packet missing_request = switched_request(missing);
  const std::byte* missing_buffer = serve(rig, missing_request);

  ASSERT_EQ(rig.sink->frames.size(), 2U);
  wire::RpcResponse scan_body = response_body(105000);  // 5 + 100 * 1 us
  scan_body.value = kv_service()->execute(scan).value;
  EXPECT_EQ(scan_body.value.size(), 8U);
  EXPECT_EQ(rig.sink->frames[0].to_frame(),
            oracle_response(scan_request, &scan_body));
  EXPECT_EQ(rig.sink->frames[0].bytes().data(), scan_buffer);

  wire::RpcResponse missing_body = response_body(5000);
  missing_body.status = wire::RpcStatus::kNotFound;
  EXPECT_EQ(rig.sink->frames[1].to_frame(),
            oracle_response(missing_request, &missing_body));
  EXPECT_EQ(rig.sink->frames[1].bytes().data(), missing_buffer);
  EXPECT_EQ(rig.pool.stats().acquired, 2U);  // the two requests only
}

TEST(HostFrames, KvGetResponseOutgrowsItsRequestIntoAFreshFrame) {
  ServerRig rig{kv_service()};
  wire::RpcRequest get;
  get.op = wire::RpcOp::kGet;
  get.key = 123;
  const Packet request = switched_request(get);
  const std::byte* buffer = serve(rig, request);
  ASSERT_EQ(rig.sink->frames.size(), 1U);
  const FrameHandle& response = rig.sink->frames[0];
  wire::RpcResponse body = response_body(5000);
  const std::string value = kv::value_for_index(123);
  body.value.assign(std::as_bytes(std::span{value}));
  EXPECT_EQ(response.to_frame(), oracle_response(request, &body));
  // 138 bytes do not fit the request's 128-byte buffer.
  EXPECT_EQ(response.size(), 138U);
  EXPECT_NE(response.bytes().data(), buffer);
  EXPECT_EQ(rig.pool.stats().acquired, 2U);
  EXPECT_EQ(rig.pool.stats().live, 1U);  // the request's buffer went back
}

TEST(HostFrames, SharedRequestFrameIsLeftIntactAndAnsweredInAFreshFrame) {
  ServerRig rig{synthetic_service()};
  const Packet request = switched_request(fixed_body());
  const Frame request_bytes = request.serialize();
  // A second holder of the request's frame — a duplicate the link model
  // delivers, say — keeps it shared while the server works.
  const FrameHandle held =
      netclone::testing::copy_into(rig.pool, request_bytes);
  rig.server->handle_frame(0, held);
  rig.sim.run();
  ASSERT_EQ(rig.sink->frames.size(), 1U);
  const wire::RpcResponse body = response_body(25000);
  EXPECT_EQ(rig.sink->frames[0].to_frame(), oracle_response(request, &body));
  EXPECT_FALSE(rig.sink->frames[0].shares_buffer_with(held));
  EXPECT_EQ(held.to_frame(), request_bytes) << "the shared frame was written";
  EXPECT_EQ(held.use_count(), 1U);
  EXPECT_EQ(rig.pool.stats().acquired, 2U);
}

TEST(HostFrames, MultiFragmentResponseMarkersMatchTheOracle) {
  ServerRig rig{synthetic_service(), /*response_fragments=*/3};
  const Packet request = switched_request(fixed_body());
  const std::byte* buffer = serve(rig, request);
  ASSERT_EQ(rig.sink->frames.size(), 3U);
  const wire::RpcResponse body = response_body(25000);
  EXPECT_EQ(rig.sink->frames[0].to_frame(),
            oracle_response(request, &body, 0, 3));
  EXPECT_EQ(rig.sink->frames[0].bytes().data(), buffer);
  for (std::uint8_t f = 1; f < 3; ++f) {
    EXPECT_EQ(rig.sink->frames[f].to_frame(),
              oracle_response(request, nullptr, f, 3))
        << "marker " << int{f};
    EXPECT_EQ(rig.sink->frames[f].size(), wire::kNetClonePayloadOffset);
  }
  EXPECT_EQ(rig.pool.stats().acquired, 3U);  // the request and two markers
}

}  // namespace
}  // namespace netclone::host
