#include "host/server.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "wire/udp_frame.hpp"

namespace netclone::host {

namespace {

/// Partially reassembled multi-packet requests untouched this long are
/// garbage-collected (a fragment was dropped, e.g. a stale clone copy).
constexpr SimTime kPartialRequestTtl = SimTime::milliseconds(50);

/// Writes one response fragment — the header stack of `flow`, `nc`, and
/// `body` — over `frame` when the handle holds its buffer alone and the
/// fragment fits it, and into a fresh frame from `pool` otherwise.
wire::FrameHandle write_response(wire::FramePool& pool,
                                 wire::FrameHandle frame,
                                 const wire::UdpFlow& flow,
                                 const wire::NetCloneHeader& nc,
                                 const wire::RpcResponse& body) {
  const std::size_t body_size = body.wire_size();
  const std::size_t size = wire::kNetClonePayloadOffset + body_size;
  if (!frame.reuse(size)) {
    frame.reset();
    frame = wire::FrameHandle::allocate(pool, size);
  }
  std::byte* p = frame.writable();
  wire::write_udp_headers(p, flow, size);
  nc.store(p + wire::kNetCloneOffset);
  wire::ByteWriter w{
      std::span<std::byte>{p + wire::kNetClonePayloadOffset, body_size}};
  body.serialize(w);
  wire::seal_udp_checksum(p, size);
  return frame;
}

}  // namespace

Server::Server(sim::Simulator& sim, ServerParams params,
               std::shared_ptr<ServiceModel> service, Rng rng)
    : phys::Node("server-" + std::to_string(value_of(params.sid))),
      sim_(sim),
      params_(params),
      service_(std::move(service)),
      rng_(rng),
      my_ip_(server_ip(params.sid)),
      my_mac_(wire::MacAddress::from_node(0x0100U + value_of(params.sid))) {
  NETCLONE_CHECK(params_.workers > 0, "server needs at least one worker");
  // The client tracks a response's fragments in a 64-bit mask.
  NETCLONE_CHECK(params_.response_fragments <= 64,
                 "a response has at most 64 fragments");
  // Steady state holds at most a handful of concurrent partials (one per
  // in-flight multi-packet request); presizing keeps the dispatch path
  // rehash-free well past that.
  partials_.reserve(256);
}

void Server::handle_frame(std::size_t /*port*/, wire::FrameHandle frame) {
  // The ingress link delivers each frame when the dispatcher thread has
  // picked it up (receive_cost), so the frame is dispatched right here.
  if (crashed_) {
    ++stats_.dropped_while_crashed;
    return;
  }
  if (paused_) {
    ++stats_.paused_frames;
    paused_rx_.push_back(std::move(frame));
    return;
  }
  dispatch(std::move(frame));
}

void Server::dispatch(wire::FrameHandle frame) {
  if (!wire::verify_frame_checksums(frame)) {
    ++stats_.checksum_drops;
    return;
  }
  wire::PacketView pkt;
  try {
    pkt = wire::PacketView{std::move(frame)};
  } catch (const wire::CodecError&) {
    return;  // not for us / corrupt — a real NIC would also discard it
  }
  if (!pkt.has_netclone() || (!wire::is_request(pkt.type()) &&
                              pkt.type() != wire::MsgType::kCancel)) {
    return;  // servers only consume requests and cancels
  }
  // Keep what the host path needs: the NetClone header, the return
  // route, and the frame itself.
  PendingRequest req{pkt.netclone(),
                     ResponseRoute{pkt.eth_src(), pkt.ip_src(),
                                   pkt.src_port()},
                     pkt.take_frame()};
  on_dispatch(req);
}

void Server::on_cancel(const wire::NetCloneHeader& nc) {
  // Cancel only reaches into the waiting queue and the reassembly table;
  // a request already being executed runs to completion (no preemption,
  // as in C-Clone practice).
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const wire::NetCloneHeader& queued = queue_[i].req.nc;
    if (queued.client_id == nc.client_id &&
        queued.client_seq == nc.client_seq) {
      queue_.erase(i);
      ++stats_.cancelled_requests;
      return;
    }
  }
  // A matching partial reassembly (some fragments queued, some still in
  // flight or dropped) would otherwise strand until the TTL sweep.
  const std::uint64_t key =
      static_cast<std::uint64_t>(nc.client_id) << 32 | nc.client_seq;
  if (partials_.erase(key)) {
    ++stats_.cancelled_partials;
    return;
  }
  ++stats_.cancel_misses;
}

void Server::on_dispatch(PendingRequest& req) {
  if ((++dispatch_counter_ & 0xFFFU) == 0 && !partials_.empty()) {
    sweep_stale_partials();
  }
  if (req.nc.is_cancel()) {
    on_cancel(req.nc);
    return;
  }
  ++stats_.rx_requests;
  const wire::NetCloneHeader& nc = req.nc;
  // §3.4: the switch cloned this request believing we were idle. If the
  // server says otherwise the tracked state was stale — drop the copy. The
  // original (CLO=1) is never dropped. For multi-packet requests the check
  // applies per fragment, which is why a partially-cloned request can
  // strand a partial reassembly (swept by TTL below).
  if (nc.clo == wire::CloneStatus::kClonedCopy) {
    const bool busy =
        params_.clone_admission == CloneAdmission::kQueueEmpty
            ? !queue_.empty()
            : !queue_.empty() || busy_workers_ >= params_.workers;
    if (busy) {
      ++stats_.dropped_stale_clones;
      return;
    }
  }
  if (nc.multi_packet() && !reassemble(req)) {
    return;  // waiting for more fragments
  }
  queue_.emplace_back(std::move(req), sim_.now());
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  try_start_worker();
}

bool Server::reassemble(PendingRequest& req) {
  const wire::NetCloneHeader& nc = req.nc;
  const std::uint64_t key =
      static_cast<std::uint64_t>(nc.client_id) << 32 | nc.client_seq;
  bool inserted = false;
  PartialRequest& partial = partials_.get_or_insert(key, inserted);
  partial.last_update = sim_.now();
  const std::uint64_t bit = std::uint64_t{1} << (nc.frag_idx & 63U);
  if ((partial.frag_mask & bit) != 0) {
    // This ordinal already arrived (an unfiltered duplicate or a
    // retransmit overlap): count it, never double-set the mask — the
    // popcount completion test must see each ordinal once.
    ++stats_.duplicate_fragments;
    return false;
  }
  partial.frag_mask |= bit;
  const std::uint8_t frag_count = nc.frag_count;
  if (nc.frag_idx == 0) {
    // The payload and the CLO marking of the cloning decision travel in
    // fragment 0; pin it as the surfaced request regardless of arrival
    // order (cloned paths and multipath reorder freely).
    partial.root = std::move(req);
    partial.have_root = true;
  }
  if (std::popcount(partial.frag_mask) < static_cast<int>(frag_count)) {
    return false;
  }
  if (!partial.have_root) {
    // Malformed: enough distinct ordinals but none was 0 (ordinals out
    // of range). Drop the aggregation; the TTL sweep would otherwise.
    partials_.erase(key);
    return false;
  }
  // Complete: surface fragment 0 as the assembled request.
  req = std::move(partial.root);
  req.nc.frag_idx = 0;
  req.nc.frag_count = frag_count;
  partials_.erase(key);
  ++stats_.reassembled_requests;
  return true;
}

void Server::sweep_stale_partials() {
  const SimTime cutoff = sim_.now() - kPartialRequestTtl;
  // Collect first, erase after: backward-shift deletion moves entries
  // the visit has not reached yet, so erasing mid-iteration could skip
  // (or double-visit) survivors.
  expired_keys_.clear();
  partials_.for_each([&](std::uint64_t key, const PartialRequest& partial) {
    if (partial.last_update < cutoff) {
      expired_keys_.push_back(key);
    }
  });
  for (const std::uint64_t key : expired_keys_) {
    partials_.erase(key);
    ++stats_.expired_partials;
  }
}

void Server::try_start_worker() {
  if (busy_workers_ >= params_.workers || queue_.empty()) {
    return;
  }
  QueueEntry& head = queue_.front();
  const SimTime queue_wait = sim_.now() - head.enqueued_at;
  stats_.queue_wait.record(queue_wait);
  ++busy_workers_;

  wire::RpcRequest rpc;
  try {
    rpc = wire::RpcRequest::from_frame(
        head.req.frame.bytes().subspan(wire::kNetClonePayloadOffset));
  } catch (const wire::CodecError&) {
    queue_.pop_front();
    --busy_workers_;
    try_start_worker();
    return;
  }
  SimTime exec = service_->execution_time(rpc, rng_);
  if (slowdown_ != 1.0) {
    exec = SimTime::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(exec.ns()) * slowdown_));
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_service_.size());
    in_service_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  // The request moves from the queue's head straight into its slot.
  InService& started = in_service_[slot];
  started.req = std::move(head.req);
  started.rpc = rpc;
  started.queue_wait = queue_wait;
  started.service = exec;
  queue_.pop_front();
  // CPU time a worker spends building + sending the response.
  static constexpr SimTime kResponseTxCost = SimTime::nanoseconds(150);
  sim_.schedule_after(exec + kResponseTxCost,
                      [this, epoch = epoch_, slot] {
                        if (epoch != epoch_) {
                          // The worker's result died with the crash;
                          // busy_workers_ and the slots were reset there.
                          ++stats_.abandoned_in_flight;
                          return;
                        }
                        InService done = std::move(in_service_[slot]);
                        free_slots_.push_back(slot);
                        on_complete(done.req, done.rpc, done.queue_wait,
                                    done.service);
                      });
}

void Server::crash() {
  ++stats_.crashes;
  ++epoch_;  // voids every in-flight worker completion
  crashed_ = true;
  paused_ = false;
  queue_.clear();
  in_service_.clear();
  free_slots_.clear();
  partials_.clear();
  paused_rx_.clear();
  busy_workers_ = 0;
}

void Server::restart() { crashed_ = false; }

void Server::pause() {
  if (!crashed_) {
    paused_ = true;
  }
}

void Server::resume() {
  if (!paused_) {
    return;
  }
  paused_ = false;
  // Dispatch the buffered frames in arrival order. The dispatcher already
  // paid for each one when it picked it up, so none is paced again.
  std::vector<wire::FrameHandle> backlog;
  backlog.swap(paused_rx_);
  for (wire::FrameHandle& frame : backlog) {
    dispatch(std::move(frame));
  }
}

void Server::set_slowdown(double factor) {
  NETCLONE_CHECK(factor > 0.0, "slowdown factor must be positive");
  slowdown_ = factor;
}

void Server::on_complete(PendingRequest& req, const wire::RpcRequest& rpc,
                         SimTime queue_wait, SimTime service) {
  ++stats_.completed;

  wire::NetCloneHeader nc = req.nc;
  nc.type = wire::MsgType::kResponse;
  nc.sid = value_of(params_.sid);
  // Piggyback the *current* queue length — the state signal of §3.4. The
  // switch treats 0 as idle; RackSched and the integration compare the raw
  // values.
  const auto qlen = static_cast<std::uint16_t>(
      std::min<std::size_t>(queue_.size(), 0xFFFF));
  nc.state = qlen;
  wire::RpcResponse body = service_->execute(rpc);
  // Latency decomposition for the client (clamped to the field width;
  // 4.2 s of queueing would mean something far worse than truncation).
  body.queue_wait_ns = static_cast<std::uint32_t>(
      std::min<std::int64_t>(queue_wait.ns(), 0xFFFFFFFFLL));
  body.service_ns = static_cast<std::uint32_t>(
      std::min<std::int64_t>(service.ns(), 0xFFFFFFFFLL));

  ++stats_.responses_total;
  if (qlen == 0) {
    ++stats_.responses_with_empty_queue;
  }

  // Back to whoever sent the request. Fragment 0 carries the body and is
  // written over the request's own frame when it can be; the rest are
  // header-only markers the switch filters through its ordered tables.
  // Each leaves as soon as it is written; the egress link's FIFO
  // schedules one delivery event per fragment.
  const wire::UdpFlow flow{my_mac_, req.from.mac, my_ip_, req.from.ip,
                           wire::kNetClonePort, req.from.udp_port};
  const auto frags = std::max<std::uint8_t>(params_.response_fragments, 1);
  nc.frag_count = frags;
  nc.frag_idx = 0;
  send(0, write_response(pool(), std::move(req.frame), flow, nc, body));
  for (std::uint8_t f = 1; f < frags; ++f) {
    nc.frag_idx = f;
    send(0, wire::header_only_frame(pool(), flow, nc));
  }

  --busy_workers_;
  try_start_worker();
}

}  // namespace netclone::host
