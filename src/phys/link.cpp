#include "phys/link.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "phys/node.hpp"

namespace netclone::phys {

namespace {

/// Flips one random bit in a private copy of the frame, taken from the
/// frame's own pool (the second handle makes the buffer shared, so
/// writable() copies it). The flip is confined to byte offsets >= 14 (the
/// start of the IPv4 header): the Ethernet region carries no checksum in
/// this model, so a flip there would be undetectable by design — and a
/// real FCS failure looks like a plain drop, which `drop_rate` already
/// covers.
wire::FrameHandle corrupt_copy(const wire::FrameHandle& frame, Rng& rng) {
  wire::FrameHandle copy = frame;
  std::byte* bytes = copy.writable();
  const std::size_t lo = std::min<std::size_t>(14, copy.size() - 1);
  const std::size_t off =
      lo + static_cast<std::size_t>(rng.next_below(copy.size() - lo));
  const auto bit = static_cast<unsigned char>(1U << rng.next_below(8));
  bytes[off] ^= std::byte{bit};
  return copy;
}

/// A FIFO entry holds its ready time in 61 bits.
constexpr std::uint64_t kReadyMask = (std::uint64_t{1} << 61) - 1;

}  // namespace

Link::Link(sim::Simulator& sim, LinkParams params)
    : sim::Stream(sim), sim_(sim), params_(params) {
  NETCLONE_CHECK(params_.rate_bps > 0.0, "link rate must be positive");
}

void Link::connect_to(Node* dst, std::size_t dst_port) {
  NETCLONE_CHECK(dst_ == nullptr, "link already connected");
  receive_cost_ = dst->attach_ingress();
  dst_ = dst;
  dst_port_ = dst_port;
}

SimTime Link::serialization_time(std::size_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) * 8.0 / params_.rate_bps;
  return SimTime::seconds(seconds);
}

void Link::transmit(wire::FrameHandle frame) {
  transmit_at(sim_.now(), std::move(frame));
}

void Link::transmit_at(SimTime ready, wire::FrameHandle frame) {
  NETCLONE_CHECK(ready >= sim_.now(), "link hand-off ready in the past");
  NETCLONE_CHECK(ready >= last_ready_,
                 "link hand-off ready before the previous hand-off's");
  NETCLONE_CHECK(static_cast<std::uint64_t>(ready.ns()) <= kReadyMask,
                 "link hand-off ready beyond the FIFO's time range");
  last_ready_ = ready;
  if (!up_ || dst_ == nullptr) {
    ++stats_.dropped_frames;
    return;
  }
  if (impair_ != nullptr) [[unlikely]] {
    transmit_impaired(ready, std::move(frame));
    return;
  }
  enqueue(ready, std::move(frame), /*duplicate=*/false);
}

void Link::transmit_impaired(SimTime ready, wire::FrameHandle frame) {
  ImpairmentState& st = *impair_;
  // Draw order is fixed (drop, corrupt, duplicate, reorder) and each
  // draw happens only when its rate is non-zero, so a given config
  // consumes the stream identically on every same-seed run.
  if (st.cfg.drop_rate > 0.0 && st.rng.bernoulli(st.cfg.drop_rate)) {
    ++stats_.impaired_drops;
    return;
  }
  if (st.cfg.corrupt_rate > 0.0 && !frame.empty() &&
      st.rng.bernoulli(st.cfg.corrupt_rate)) {
    frame = corrupt_copy(frame, st.rng);
    ++stats_.corrupted_frames;
  }
  const bool duplicate = st.cfg.duplicate_rate > 0.0 &&
                         st.rng.bernoulli(st.cfg.duplicate_rate);
  wire::FrameHandle dup_copy;
  if (duplicate) {
    dup_copy = frame;  // refcount share; enqueue never mutates bytes
  }
  enqueue(ready, std::move(frame), /*duplicate=*/false);
  if (duplicate) {
    ++stats_.duplicated_frames;
    enqueue(ready, std::move(dup_copy), /*duplicate=*/true);
  }
  // Reorder only while the earlier frame is still on the wire at `ready`
  // (arrived by then, it could not be overtaken), so no frame is ever
  // delivered before it is ready.
  if (st.cfg.reorder_rate > 0.0 && pending_.size() >= 2 &&
      pending_[pending_.size() - 2].deliver_at > ready &&
      st.rng.bernoulli(st.cfg.reorder_rate)) {
    // Reorder by swapping the *frames* of the last two FIFO entries.
    // Arrival and pickup times, tie-break numbers, and occupancy
    // accounting stay with their slots, so the swap is invisible to the
    // event machinery — the receiver just sees the two frames in the
    // opposite order.
    InFlight& last = pending_.back();
    std::swap(last.frame, pending_[pending_.size() - 2].frame);
    last.swapped ^= 1U;
    ++stats_.reordered_frames;
  }
}

std::size_t Link::occupancy_at(SimTime ready) const {
  std::size_t freed = 0;
  // deliver_at never decreases along the FIFO.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const InFlight& entry = pending_[i];
    if (entry.deliver_at > ready) {
      break;
    }
    if (entry.counted_queued != 0) {
      ++freed;
    }
  }
  return queued_ - freed;
}

std::size_t Link::queued() const {
  const SimTime now = sim_.now();
  std::size_t held = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const InFlight& entry = pending_[i];
    if (entry.counted_queued != 0 && entry.ready() <= now &&
        entry.deliver_at > now) {
      ++held;
    }
  }
  return held;
}

void Link::enqueue(SimTime ready, wire::FrameHandle frame, bool duplicate) {
  // queued_ bounds the occupancy at `ready` from above; walk the FIFO for
  // the exact figure only when that bound says the queue may be full.
  if (busy_until_ > ready && queued_ >= params_.queue_capacity &&
      occupancy_at(ready) >= params_.queue_capacity) {
    ++stats_.dropped_frames;
    return;
  }
  const SimTime start = busy_until_ > ready ? busy_until_ : ready;
  busy_until_ = start + serialization_time(frame.size());
  const bool counted_queued = start > ready;
  ++stats_.tx_frames;
  stats_.tx_bytes += frame.size();
  if (counted_queued) {
    ++queued_;
  }
  const SimTime deliver_at = busy_until_ + params_.delay;
  // The receiver's thread takes frames one at a time, in arrival order.
  picked_up_until_ =
      std::max(deliver_at, picked_up_until_) + receive_cost_;
  InFlight& entry = pending_.emplace_back();
  entry.deliver_at = deliver_at;
  entry.pickup_at = picked_up_until_;
  entry.ready_ns = static_cast<std::uint64_t>(ready.ns()) & kReadyMask;
  entry.counted_queued = counted_queued ? 1U : 0U;
  entry.duplicate = duplicate ? 1U : 0U;
  entry.seq = sim_.draw_seq();
  entry.frame = std::move(frame);
  if (pending_.size() == 1) {
    arm(entry.pickup_at, entry.seq);
  }
}

std::size_t Link::retract_not_ready() {
  std::size_t handoffs = 0;
  // Ready times never decrease along the FIFO, so the frames to take back
  // are its tail. Undo from the back: a reorder swap always involves the
  // tail slot of its time, so reverse order restores every frame. The
  // slot a swap reaches is still in the FIFO: a swap needs it in flight
  // at the swapped frame's ready time, which has not passed.
  while (!pending_.empty() && pending_.back().ready() >= sim_.now()) {
    InFlight& last = pending_.back();
    if (last.swapped != 0) {
      std::swap(last.frame, pending_[pending_.size() - 2].frame);
    }
    if (last.counted_queued != 0) {
      --queued_;
    }
    --stats_.tx_frames;
    stats_.tx_bytes -= last.frame.size();
    if (last.duplicate == 0) {
      ++handoffs;
    }
    pending_.pop_back();
  }
  // The transmitter is busy until the last kept frame has serialized,
  // and the receiver until it has picked that frame up. With none kept,
  // every earlier frame has been delivered, so both are idle now. A kept
  // front is still the stream's armed head.
  if (pending_.empty()) {
    disarm();
    busy_until_ = std::min(busy_until_, sim_.now());
    picked_up_until_ = std::min(picked_up_until_, sim_.now());
  } else {
    busy_until_ = pending_.back().deliver_at - params_.delay;
    picked_up_until_ = pending_.back().pickup_at;
  }
  return handoffs;
}

void Link::fire() {
  InFlight& front = pending_.front();
  wire::FrameHandle frame = std::move(front.frame);
  if (front.counted_queued != 0) {
    NETCLONE_CHECK(queued_ > 0, "link drop-tail occupancy underflow");
    --queued_;
  }
  pending_.pop_front();
  if (!pending_.empty()) {
    arm(pending_.front().pickup_at, pending_.front().seq);
  }
  dst_->handle_frame(dst_port_, std::move(frame));
}

void Link::configure_impairments(const LinkImpairments& cfg,
                                 std::uint64_t seed) {
  if (!cfg.any()) {
    impair_.reset();
    return;
  }
  if (impair_ != nullptr) {
    impair_->cfg = cfg;  // reconfigure in place; keep the RNG stream
  } else {
    impair_ = std::make_unique<ImpairmentState>(
        ImpairmentState{cfg, Rng{seed}});
  }
}

void Link::set_up(bool up) {
  if (up_ == up) {
    return;
  }
  up_ = up;
  if (!up) {
    // Everything in flight is lost with the cable; clearing the FIFO and
    // disarming here (instead of letting the deliveries fire into a
    // revived link) is what keeps the new-epoch drop-tail occupancy exact.
    stats_.flushed_frames += pending_.size();
    disarm();
    pending_.clear();
    queued_ = 0;
    busy_until_ = sim_.now();
    picked_up_until_ = sim_.now();
  }
}

}  // namespace netclone::phys
