#include "replays.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/netclone_program.hpp"
#include "host/addressing.hpp"
#include "host/server.hpp"
#include "host/service.hpp"
#include "kv/kv_workload.hpp"
#include "kv/store.hpp"
#include "phys/link.hpp"
#include "phys/node.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "sim/simulator.hpp"
#include "wire/frame.hpp"
#include "wire/rpc.hpp"

namespace netclone::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 5;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

template <typename Fn>
double median_of_repeats(Fn&& measure) {
  std::vector<double> values;
  for (int i = 0; i < kRepeats; ++i) {
    values.push_back(measure());
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// A host's wire presence without its bookkeeping: counts (and, when
/// asked, keeps) what arrives.
class SinkNode final : public phys::Node {
 public:
  SinkNode(std::string name, bool keep)
      : phys::Node(std::move(name)), keep_(keep) {}

  void handle_frame(std::size_t /*port*/, wire::FrameHandle frame) override {
    ++received;
    if (keep_) {
      frames.push_back(std::move(frame));
    }
  }

  std::vector<wire::FrameHandle> frames;
  std::uint64_t received = 0;

 private:
  bool keep_;
};

/// Constant-time service with no RNG draws: the host replay measures the
/// server stack, not the service model (the decorators time that in situ).
class FixedService final : public host::ServiceModel {
 public:
  [[nodiscard]] SimTime execution_time(const wire::RpcRequest& /*req*/,
                                       Rng& /*rng*/) override {
    return SimTime::microseconds(1);
  }
  [[nodiscard]] wire::RpcResponse execute(
      const wire::RpcRequest& /*req*/) override {
    return {};
  }
};

using PortFrames = std::vector<std::pair<std::size_t, wire::FrameHandle>>;

/// Hands frames to a node's handle_frame one `gap` apart, keeping a single
/// event pending like an arrival process.
struct Feeder {
  sim::Simulator* sim;
  phys::Node* target;
  PortFrames* frames;
  SimTime gap;
  std::size_t next = 0;

  void operator()() {
    auto& [port, frame] = (*frames)[next];
    target->handle_frame(port, std::move(frame));
    if (++next < frames->size()) {
      sim->schedule_after(gap, *this);
    }
  }
};

/// Each fired event schedules its successor 0.5–8 µs out (link, pipeline
/// and service-time scales), keeping kChains events pending.
struct Hop {
  static constexpr std::size_t kChains = 256;

  sim::Simulator* sim;
  const std::vector<SimTime>* delays;
  std::uint64_t* fired;
  std::uint64_t limit;

  void operator()() {
    const std::uint64_t n = ++*fired;
    if (n + kChains <= limit) {
      sim->schedule_after((*delays)[n % delays->size()], *this);
    }
  }
};

wire::FrameHandle request_frame(std::uint32_t seq, std::uint16_t grp,
                                wire::Ipv4Address dst) {
  wire::NetCloneHeader nc;
  nc.type = wire::MsgType::kRequest;
  nc.grp = grp;
  nc.idx = static_cast<std::uint8_t>(seq & 1U);
  nc.client_seq = seq;
  wire::RpcRequest req;
  req.intrinsic_ns = 25000;
  return wire::make_netclone_packet(wire::MacAddress::from_node(1),
                                    wire::MacAddress::from_node(2),
                                    host::client_ip(0), dst, 40000, nc,
                                    req.to_frame())
      .serialize_pooled();
}

/// The idle-server response a worker `sid` sends for `request`.
wire::FrameHandle response_frame(const wire::FrameHandle& request,
                                 std::uint8_t sid) {
  const wire::Packet req = wire::Packet::parse_backed(request);
  wire::NetCloneHeader nc = req.nc();
  nc.type = wire::MsgType::kResponse;
  nc.sid = sid;
  nc.state = 0;
  return wire::make_netclone_packet(wire::MacAddress::from_node(100U + sid),
                                    wire::MacAddress::from_node(1),
                                    req.ip.dst, req.ip.src,
                                    wire::kNetClonePort, nc,
                                    wire::RpcResponse{}.to_frame())
      .serialize_pooled();
}

std::uint64_t link_frames(const phys::Topology& topology) {
  std::uint64_t frames = 0;
  for (const auto& link : topology.links()) {
    frames += link->stats().tx_frames;
  }
  return frames;
}

/// Feeds `frames` into `target` and returns the wall time, in ns.
double feed(sim::Simulator& sim, phys::Node& target, PortFrames& frames,
            SimTime gap) {
  const auto start = Clock::now();
  sim.schedule_at(sim.now(), Feeder{&sim, &target, &frames, gap});
  sim.run();
  return ns_since(start);
}

double sim_ns_per_event() {
  constexpr std::uint64_t kEvents = 2000000;
  Rng rng{7};
  std::vector<SimTime> delays(4096);
  for (SimTime& d : delays) {
    d = SimTime::nanoseconds(
        500 + static_cast<std::int64_t>(rng.next_u64() % 7500));
  }
  return median_of_repeats([&] {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < Hop::kChains; ++c) {
      sim.schedule_at(delays[c], Hop{&sim, &delays, &fired, kEvents});
    }
    sim.run();
    return ns_since(start) / static_cast<double>(sim.executed_events());
  });
}

double phys_ns_per_frame(double ns_per_event) {
  constexpr std::uint64_t kFrames = 300000;
  const wire::FrameHandle frame = request_frame(1, 0, host::service_vip());
  return median_of_repeats([&] {
    sim::Simulator sim;
    SinkNode sink{"sink", false};
    phys::Link link{sim, phys::LinkParams{}};
    link.connect_to(&sink, 0);
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      link.transmit(frame);
      sim.run();
    }
    const double ns = ns_since(start);
    NETCLONE_CHECK(sink.received == kFrames, "link replay lost frames");
    return (ns - ns_per_event * static_cast<double>(sim.executed_events())) /
           static_cast<double>(kFrames);
  });
}

double wire_ns_per_parse() {
  constexpr std::uint64_t kParses = 2000000;
  const wire::FrameHandle frame = request_frame(1, 0, host::service_vip());
  return median_of_repeats([&] {
    std::uint64_t seqs = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kParses; ++i) {
      const wire::Packet pkt = wire::Packet::parse_backed(frame);
      seqs += pkt.nc().client_seq;
    }
    const double ns = ns_since(start);
    NETCLONE_CHECK(seqs == kParses, "parse replay misread the header");
    return ns / static_cast<double>(kParses);
  });
}

/// Requests from one client through a NetClone ToR to six idle servers,
/// then every server copy's response back through the filter.
double pisa_ns_per_pass(double ns_per_event, double ns_per_frame) {
  constexpr std::size_t kServers = 6;
  constexpr std::uint32_t kRequests = 50000;
  return median_of_repeats([&] {
    sim::Simulator sim;
    phys::Topology topology{sim};
    auto& tor = topology.add_node<pisa::SwitchDevice>(sim, "tor");
    const std::size_t recirc = tor.add_internal_port();
    tor.set_loopback_port(recirc);
    auto program = std::make_shared<core::NetCloneProgram>(
        tor.pipeline(), core::NetCloneConfig{});
    tor.load_program(program);
    core::Controller controller{*program, tor, recirc};
    std::vector<SinkNode*> servers;
    std::vector<std::size_t> server_ports;
    for (std::size_t i = 0; i < kServers; ++i) {
      auto& server =
          topology.add_node<SinkNode>("s" + std::to_string(i), true);
      const auto ports = topology.connect(server, tor);
      const auto sid = static_cast<ServerId>(static_cast<std::uint8_t>(i));
      controller.add_server(sid, host::server_ip(sid), ports.port_on_b);
      servers.push_back(&server);
      server_ports.push_back(ports.port_on_b);
    }
    auto& client = topology.add_node<SinkNode>("c0", false);
    const std::size_t client_port = topology.connect(client, tor).port_on_b;
    controller.add_route(host::client_ip(0), client_port);

    PortFrames requests;
    for (std::uint32_t seq = 1; seq <= kRequests; ++seq) {
      requests.emplace_back(
          client_port,
          request_frame(seq,
                        static_cast<std::uint16_t>(
                            seq % controller.group_count()),
                        host::service_vip()));
    }
    double timed_ns = feed(sim, tor, requests, SimTime::microseconds(1));

    PortFrames responses;
    for (std::size_t i = 0; i < kServers; ++i) {
      for (const wire::FrameHandle& copy : servers[i]->frames) {
        responses.emplace_back(
            server_ports[i],
            response_frame(copy, static_cast<std::uint8_t>(i)));
      }
      servers[i]->frames.clear();
    }
    timed_ns += feed(sim, tor, responses, SimTime::microseconds(1));

    const auto passes = static_cast<double>(tor.stats().rx_frames);
    NETCLONE_CHECK(client.received > 0 && passes > kRequests,
                   "switch replay forwarded nothing");
    return (timed_ns -
            ns_per_event * static_cast<double>(sim.executed_events()) -
            ns_per_frame * static_cast<double>(link_frames(topology))) /
           passes;
  });
}

/// Requests straight into Server::handle_frame at the dispatcher's line
/// rate; responses leave over the server's link.
double host_server_ns_per_request(double ns_per_event, double ns_per_frame) {
  constexpr std::uint32_t kRequests = 100000;
  return median_of_repeats([&] {
    sim::Simulator sim;
    phys::Topology topology{sim};
    host::ServerParams params;
    params.sid = ServerId{1};
    params.workers = 16;
    auto& server = topology.add_node<host::Server>(
        sim, params, std::make_shared<FixedService>(), Rng{42});
    auto& client = topology.add_node<SinkNode>("c0", false);
    const std::size_t port = topology.connect(server, client).port_on_a;

    PortFrames requests;
    for (std::uint32_t seq = 1; seq <= kRequests; ++seq) {
      requests.emplace_back(port,
                            request_frame(seq, 1, host::server_ip(params.sid)));
    }
    const double ns = feed(sim, server, requests, params.dispatch_cost);
    NETCLONE_CHECK(server.stats().completed == kRequests &&
                       client.received == kRequests,
                   "server replay lost requests");
    return (ns - ns_per_event * static_cast<double>(sim.executed_events()) -
            ns_per_frame * static_cast<double>(link_frames(topology))) /
           static_cast<double>(kRequests);
  });
}

}  // namespace

UnitCosts measure_unit_costs() {
  UnitCosts u;
  u.sim_ns_per_event = sim_ns_per_event();
  u.phys_ns_per_frame = phys_ns_per_frame(u.sim_ns_per_event);
  u.wire_ns_per_parse = wire_ns_per_parse();
  u.pisa_ns_per_pass =
      pisa_ns_per_pass(u.sim_ns_per_event, u.phys_ns_per_frame);
  u.host_server_ns_per_request =
      host_server_ns_per_request(u.sim_ns_per_event, u.phys_ns_per_frame);
  return u;
}

KvCosts measure_kv_costs() {
  constexpr std::size_t kObjects = 1000000;
  KvCosts out;
  auto store = std::make_shared<kv::KvStore>(kObjects);
  const auto start = Clock::now();
  kv::populate(*store, kObjects);
  out.populate_s = ns_since(start) / 1e9;

  const kv::KvCostProfile profile = kv::redis_profile();
  kv::KvService service{store, profile, host::JitterModel{}};
  const auto per_op = [&](double get_fraction, double set_fraction,
                          std::size_t ops) {
    kv::KvMix mix;
    mix.get_fraction = get_fraction;
    mix.set_fraction = set_fraction;
    mix.num_keys = kObjects;
    kv::KvRequestFactory factory{mix, profile};
    Rng rng{11};
    std::vector<wire::RpcRequest> requests;
    for (std::size_t i = 0; i < ops; ++i) {
      requests.push_back(factory.make(rng));
    }
    return median_of_repeats([&] {
      std::size_t replies = 0;
      const auto op_start = Clock::now();
      for (const wire::RpcRequest& req : requests) {
        replies += service.execute(req).value.size() + 1;
      }
      const double ns = ns_since(op_start);
      NETCLONE_CHECK(replies >= ops, "KV replay lost replies");
      return ns / static_cast<double>(ops);
    });
  };
  out.get_ns = per_op(1.0, 0.0, 50000);
  out.scan_ns = per_op(0.0, 0.0, 5000);
  out.set_ns = per_op(0.0, 1.0, 50000);
  return out;
}

}  // namespace netclone::benchmark
