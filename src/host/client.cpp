#include "host/client.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace netclone::host {

namespace {

/// Every request frame: the header stack, the NetClone header, the body.
constexpr std::size_t kRequestFrameSize =
    wire::kNetClonePayloadOffset + wire::RpcRequest::kSize;

/// TCP-mode retry backoff (ClientParams::retransmit_timeout): growth per
/// retry, cap on the un-jittered delay, and the jitter band.
constexpr double kRetransmitBackoff = 2.0;
constexpr SimTime kRetransmitCap = SimTime::milliseconds(100);
constexpr double kRetransmitJitter = 0.1;

/// The UDP port a client sends from and receives its responses on.
std::uint16_t client_port(std::uint16_t client_id) {
  return static_cast<std::uint16_t>(40000 + client_id);
}

/// Seed for the client's retransmit-jitter stream. The probe is a *copy*
/// of the workload RNG, so deriving the seed consumes nothing from the
/// stream the arrivals and request keys are drawn from — adding the
/// retry stream cannot shift any existing same-seed run.
std::uint64_t retry_stream_seed(Rng probe, std::uint16_t client_id) {
  return probe.next_u64() ^
         0x5851F42D4C957F2DULL *
             (static_cast<std::uint64_t>(client_id) + 1);
}

}  // namespace

Client::Client(sim::Simulator& sim, ClientParams params,
               std::shared_ptr<RequestFactory> factory, Rng rng)
    : phys::Node("client-" + std::to_string(params.client_id)),
      sim_(sim),
      params_(params),
      factory_(std::move(factory)),
      rng_(rng),
      retry_rng_(retry_stream_seed(rng, params.client_id)),
      my_ip_(client_ip(params.client_id)),
      my_mac_(wire::MacAddress::from_node(0x0200U + params.client_id)) {
  NETCLONE_CHECK(params_.rate_rps > 0.0, "client rate must be positive");
  NETCLONE_CHECK(params_.num_filter_tables > 0, "need >= 1 filter table");
  // The server tracks a request's fragments in a 64-bit mask.
  NETCLONE_CHECK(params_.request_fragments >= 1 &&
                     params_.request_fragments <= 64,
                 "a request has 1 to 64 fragments");
  if (!params_.rate_profile.empty()) {
    NETCLONE_CHECK(params_.arrival == ArrivalProcess::kPoisson,
                   "rate profiles shape Poisson arrivals only");
    SimTime prev = SimTime::zero();
    for (const RateSegment& seg : params_.rate_profile) {
      NETCLONE_CHECK(seg.multiplier > 0.0,
                     "rate profile multipliers must be positive");
      NETCLONE_CHECK(seg.from >= prev,
                     "rate profile segments must be sorted by time");
      prev = seg.from;
    }
  }
  if (!params_.group_weights.empty()) {
    NETCLONE_CHECK(params_.group_weights.size() == params_.num_groups,
                   "group_weights must have one entry per group");
    group_cdf_ = weight_cdf(params_.group_weights);
  }
  NETCLONE_CHECK(
      params_.request_fragments == 1 ||
          params_.mode == SendMode::kViaSwitch,
      "multi-packet requests are a switch-steered (NetClone) feature");
  const auto request_headers_to = [this](wire::Ipv4Address dst) {
    return wire::HeaderTemplate{
        wire::UdpFlow{my_mac_, wire::MacAddress::broadcast(), my_ip_, dst,
                      client_port(params_.client_id), wire::kNetClonePort},
        kRequestFrameSize};
  };
  if (params_.mode == SendMode::kDirectRandom ||
      params_.mode == SendMode::kCClone) {
    NETCLONE_CHECK(params_.server_ips.size() >= 2,
                   "direct modes need at least two servers");
    for (const wire::Ipv4Address ip : params_.server_ips) {
      request_headers_.push_back(request_headers_to(ip));
    }
  } else {
    request_headers_.push_back(request_headers_to(params_.target));
  }
}

void Client::start() {
  if (params_.stop_at > sim_.now() && params_.stop_at != SimTime::max()) {
    // One completion bit per request the window should issue, with room
    // for the arrival process's spread, so completions do not grow the
    // bitmap mid-run.
    double peak = 1.0;
    for (const RateSegment& seg : params_.rate_profile) {
      peak = std::max(peak, seg.multiplier);
    }
    const double expected =
        params_.rate_rps * peak * (params_.stop_at - sim_.now()).sec();
    completed_bits_.reserve(static_cast<std::size_t>(expected / 64.0 * 1.25) +
                            2);
  }
  sim_.schedule_at(next_arrival_time(), [this] { on_arrival(); });
}

double Client::profile_multiplier(const std::vector<RateSegment>& profile,
                                  SimTime t) {
  double mult = 1.0;
  for (const RateSegment& seg : profile) {
    if (seg.from > t) {
      break;
    }
    mult = seg.multiplier;
  }
  return mult;
}

std::vector<double> Client::weight_cdf(const std::vector<double>& weights) {
  std::vector<double> cdf;
  cdf.reserve(weights.size());
  double total = 0.0;
  for (const double w : weights) {
    NETCLONE_CHECK(w >= 0.0, "group weights must be non-negative");
    total += w;
    cdf.push_back(total);
  }
  NETCLONE_CHECK(total > 0.0, "group weights must not all be zero");
  for (double& c : cdf) {
    c /= total;
  }
  return cdf;
}

std::size_t Client::pick_weighted(const std::vector<double>& cdf,
                                  double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  const auto index =
      static_cast<std::size_t>(std::distance(cdf.begin(), it));
  return std::min(index, cdf.size() - 1);  // guard u ~ 1.0 rounding
}

SimTime Client::next_arrival_time() {
  const SimTime from = sim_.now();
  if (params_.arrival == ArrivalProcess::kPoisson) {
    // An active rate profile rescales the exponential gap by the
    // multiplier in force at the draw instant (piecewise-constant
    // thinning); an empty profile leaves the classic draw untouched.
    double mean_us = 1e6 / params_.rate_rps;
    if (!params_.rate_profile.empty()) {
      mean_us /= profile_multiplier(params_.rate_profile, from);
    }
    return from + SimTime::microseconds(rng_.exponential(mean_us));
  }
  // MMPP sample path: arrivals run at rate_on inside exponentially
  // distributed ON windows; leftover inter-arrival time carries across the
  // OFF gaps, so the long-run mean rate stays rate_rps.
  const double f = std::clamp(params_.burst_on_fraction, 0.01, 1.0);
  const double rate_on = params_.rate_rps / f;
  static constexpr SimTime kBurstMeanOn = SimTime::microseconds(200.0);
  const double mean_on_us = kBurstMeanOn.us();
  const double mean_off_us = mean_on_us * (1.0 - f) / f;

  SimTime t = from + SimTime::microseconds(rng_.exponential(1e6 / rate_on));
  while (t > burst_on_until_) {
    const SimTime carry = t - burst_on_until_;
    const SimTime window_start =
        burst_on_until_ +
        SimTime::microseconds(rng_.exponential(mean_off_us));
    burst_on_until_ =
        window_start + SimTime::microseconds(rng_.exponential(mean_on_us));
    t = window_start + carry;
  }
  return t;
}

void Client::schedule_next_arrival() {
  const SimTime next = next_arrival_time();
  if (next >= params_.stop_at) {
    return;  // sending window over; the receiver keeps draining
  }
  sim_.schedule_at(next, [this] { on_arrival(); });
}

void Client::issue_request() {
  const std::uint32_t seq = next_seq_++;
  Pending pending;
  pending.sent_at = sim_.now();
  pending.request = factory_->make(rng_);
  pending.grp =
      group_cdf_.empty()
          ? static_cast<std::uint16_t>(rng_.next_below(
                std::max<std::uint16_t>(params_.num_groups, 1)))
          : static_cast<std::uint16_t>(
                pick_weighted(group_cdf_, rng_.next_double()));
  pending.idx =
      static_cast<std::uint8_t>(rng_.next_below(params_.num_filter_tables));
  if (params_.mode == SendMode::kCClone) {
    const std::size_t n = params_.server_ips.size();
    const auto a = static_cast<std::size_t>(rng_.next_below(n));
    auto b = static_cast<std::size_t>(rng_.next_below(n - 1));
    if (b >= a) {
      ++b;
    }
    pending.cclone_servers = {static_cast<std::uint32_t>(a),
                              static_cast<std::uint32_t>(b)};
  }
  ++stats_.requests_sent;

  send_all_packets(pending, seq);
  outstanding_.insert_or_assign(seq, std::move(pending));
  arm_retransmit_timer(seq);
}

void Client::on_arrival() {
  if (sim_.now() >= params_.stop_at) {
    return;
  }
  issue_request();
  schedule_next_arrival();
}

void Client::send_all_packets(const Pending& pending,
                              std::uint32_t client_seq) {
  // Every attempt builds its frames from `pending`, so a TCP-mode
  // retransmission sends the same bytes as the first attempt and the
  // switch derives the same REQ_ID from the unchanged client tuple.
  const wire::RpcRequest& req = pending.request;
  switch (params_.mode) {
    case SendMode::kViaSwitch:
    case SendMode::kToCoordinator:
      for (std::uint8_t f = 0; f < params_.request_fragments; ++f) {
        emit_request(req, request_headers_[0], pending.grp, pending.idx,
                     client_seq, f);
      }
      break;
    case SendMode::kDirectRandom: {
      // A fresh random worker every attempt.
      const auto i = static_cast<std::size_t>(
          rng_.next_below(params_.server_ips.size()));
      emit_request(req, request_headers_[i], pending.grp, pending.idx,
                   client_seq, 0);
      break;
    }
    case SendMode::kCClone:
      // Two copies to two distinct random workers (chosen at issue time);
      // the client fields both responses itself (no in-network filtering
      // for C-Clone).
      for (const std::uint32_t server : pending.cclone_servers) {
        emit_request(req, request_headers_[server], pending.grp,
                     pending.idx, client_seq, 0);
      }
      break;
  }
}

SimTime Client::retransmit_delay(std::uint32_t retries) {
  // Iterated multiplication instead of std::pow: IEEE multiplies are
  // exactly rounded, so the delay sequence is bit-identical across libm
  // implementations.
  double ns = static_cast<double>(params_.retransmit_timeout.ns());
  for (std::uint32_t k = 0; k < retries; ++k) {
    ns *= kRetransmitBackoff;
  }
  ns = std::min(ns, static_cast<double>(kRetransmitCap.ns()));
  ns *= 1.0 + kRetransmitJitter * retry_rng_.next_double();
  return SimTime::nanoseconds(static_cast<std::int64_t>(ns));
}

void Client::arm_retransmit_timer(std::uint32_t client_seq) {
  if (params_.retransmit_timeout <= SimTime::zero()) {
    return;
  }
  Pending* armed = outstanding_.find(client_seq);
  if (armed == nullptr) {
    return;
  }
  armed->retransmit_event = sim_.schedule_after(
      retransmit_delay(armed->retries), [this, client_seq] {
        Pending* found = outstanding_.find(client_seq);
        if (found == nullptr) {
          return;  // completed meanwhile
        }
        Pending& pending = *found;
        pending.retransmit_event = sim::EventId{};
        if (pending.retries >= params_.max_retransmits) {
          return;  // give up; the request stays incomplete
        }
        ++pending.retries;
        ++stats_.retransmissions;
        if (stats_.retransmit_times.size() < 64) {
          stats_.retransmit_times.push_back(sim_.now());
        }
        send_all_packets(pending, client_seq);
        arm_retransmit_timer(client_seq);
      });
}

void Client::emit_request(const wire::RpcRequest& req,
                          const wire::HeaderTemplate& headers,
                          std::uint16_t grp, std::uint8_t idx,
                          std::uint32_t client_seq, std::uint8_t frag_idx) {
  wire::NetCloneHeader nc;
  // Write operations travel as WREQ so the switch never clones them (§5.5).
  nc.type = req.op == wire::RpcOp::kSet ? wire::MsgType::kWriteRequest
                                        : wire::MsgType::kRequest;
  nc.clo = wire::CloneStatus::kNotCloned;
  nc.frag_idx = frag_idx;
  nc.frag_count = params_.request_fragments;
  nc.grp = grp;
  nc.req_id = 0;  // assigned by the switch
  nc.sid = 0;
  nc.state = 0;
  nc.idx = idx;
  nc.switch_id = 0;
  nc.client_id = params_.client_id;
  nc.client_seq = client_seq;

  wire::FrameHandle frame = headers.stamp(pool());
  std::byte* p = frame.writable();
  nc.store(p + wire::kNetCloneOffset);
  wire::ByteWriter body{std::span<std::byte>{
      p + wire::kNetClonePayloadOffset, wire::RpcRequest::kSize}};
  req.serialize(body);
  wire::seal_udp_checksum(p, frame.size());
  emit_frame(std::move(frame));
}

void Client::emit_frame(wire::FrameHandle bytes) {
  // Sender thread: serial per-packet cost delays actual emission; the
  // request's latency clock started at the (open-loop) arrival instant.
  // The frame goes to the link now, ready when the thread has paid for it.
  static constexpr SimTime kTxCost = SimTime::nanoseconds(100);
  const SimTime start = std::max(sim_.now(), tx_busy_until_);
  tx_busy_until_ = start + kTxCost;
  ++stats_.packets_sent;
  send_at(0, tx_busy_until_, std::move(bytes));
}

void Client::send_cancel(const Pending& pending, std::uint32_t client_seq,
                         wire::Ipv4Address responder) {
  // Tell the worker that has NOT answered to drop the queued duplicate.
  const auto [a, b] = pending.cclone_servers;
  const wire::Ipv4Address other = params_.server_ips[a] == responder
                                      ? params_.server_ips[b]
                                      : params_.server_ips[a];
  wire::NetCloneHeader nc;
  nc.type = wire::MsgType::kCancel;
  nc.client_id = params_.client_id;
  nc.client_seq = client_seq;
  ++stats_.cancels_sent;
  emit_frame(wire::header_only_frame(
      pool(),
      wire::UdpFlow{my_mac_, wire::MacAddress::broadcast(), my_ip_, other,
                    client_port(params_.client_id), wire::kNetClonePort},
      nc));
}

void Client::handle_frame(std::size_t /*port*/, wire::FrameHandle frame) {
  // The ingress link delivers each frame when the receiver thread has
  // picked it up (rx_cost, paid by every arriving frame — wanted,
  // redundant or discarded), so the application sees it right here.
  if (!wire::verify_frame_checksums(frame)) {
    ++stats_.checksum_drops;
    return;
  }
  wire::PacketView pkt;
  try {
    pkt = wire::PacketView{std::move(frame)};
  } catch (const wire::CodecError&) {
    return;
  }
  if (!pkt.has_netclone() || pkt.type() != wire::MsgType::kResponse) {
    return;
  }
  on_response_processed(pkt);
}

void Client::on_response_processed(const wire::PacketView& resp) {
  const std::uint32_t client_seq = resp.client_seq();
  Pending* found = outstanding_.find(client_seq);
  if (found == nullptr) {
    if (was_completed(client_seq)) {
      ++stats_.redundant_responses;
    } else {
      ++stats_.unmatched_responses;
    }
    return;
  }
  Pending& pending = *found;
  // Multi-packet responses complete when every fragment ordinal has been
  // seen once; a repeated ordinal is a redundant duplicate (a clone's
  // response that slipped past the filter).
  const std::uint64_t bit = std::uint64_t{1} << (resp.frag_idx() & 63U);
  if ((pending.frag_mask & bit) != 0) {
    ++stats_.redundant_responses;
    return;
  }
  pending.frag_mask |= bit;
  const std::span<const std::byte> payload = resp.payload();
  if (!payload.empty()) {
    // The payload-bearing fragment carries the server's decomposition.
    try {
      const wire::RpcResponse body = wire::RpcResponse::peek(payload);
      pending.server_wait_ns = body.queue_wait_ns;
      pending.server_service_ns = body.service_ns;
    } catch (const wire::CodecError&) {
      // tolerate foreign payloads; the decomposition is not updated
    }
  }
  if (std::popcount(pending.frag_mask) <
      static_cast<int>(resp.frag_count())) {
    return;  // waiting for the remaining fragments
  }
  mark_completed(client_seq);
  // The retransmit timeout is dead weight now — cancel it so the engine
  // removes the event from its queue instead of firing a no-op later.
  sim_.cancel(pending.retransmit_event);
  ++stats_.completed;
  if (params_.mode == SendMode::kCClone && params_.cclone_cancel) {
    send_cancel(pending, client_seq, resp.ip_src());
  }
  const SimTime now = sim_.now();
  if (pending.sent_at >= params_.warmup_until) {
    stats_.latency.record(now - pending.sent_at);
    stats_.server_queue_wait.record(
        SimTime::nanoseconds(pending.server_wait_ns));
    stats_.server_service.record(
        SimTime::nanoseconds(pending.server_service_ns));
  }
  if (now >= params_.warmup_until && now <= params_.stop_at) {
    ++stats_.completed_in_window;
  }
  // The completion bit now classifies any late duplicate, so the entry
  // can go.
  outstanding_.erase(client_seq);
}

void Client::mark_completed(std::uint32_t client_seq) {
  const std::size_t word = client_seq / 64;
  if (word >= completed_bits_.size()) {
    completed_bits_.resize(word + 1, 0);
  }
  completed_bits_[word] |= std::uint64_t{1} << (client_seq % 64);
}

bool Client::was_completed(std::uint32_t client_seq) const {
  const std::size_t word = client_seq / 64;
  return word < completed_bits_.size() &&
         (completed_bits_[word] >> (client_seq % 64) & 1U) != 0;
}

Client::Audit Client::audit() const {
  Audit a;
  for (const std::uint64_t word : completed_bits_) {
    a.completed_entries += static_cast<std::uint64_t>(std::popcount(word));
  }
  a.incomplete_entries = outstanding_.size();
  return a;
}

}  // namespace netclone::host
